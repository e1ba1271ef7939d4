"""The variations of Table 1, in row order, by registry name."""

TABLE1_VARIATIONS = ("address", "address-extended", "instruction-tagging", "uid")
