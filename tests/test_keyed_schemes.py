"""Tests for the keyed partition schemes and their variation/spec plumbing.

The keyed schemes' *structural* invariants (round-trip, disjoint inverses,
placement) are already pinned by the generic sweep in
``test_partition_schemes.py`` -- every scheme kind rides it.  What
this module pins is what makes them *keyed*:

* determinism -- the same ``(key_bits, seed)`` draws the same secret layout,
  different seeds draw different ones, and seedless construction still obeys
  every invariant;
* rotation -- ``rotate()`` redraws the secret in place, and
  ``Variation.rekey()`` refreshes whatever a variation cached from it, also
  through ``NVariantSession.restart(rotate_keys=True)`` (which re-encodes the
  unshared account files a served program reads) and checkpoint restore;
* plumbing -- registry entries, spec helpers, and
  :func:`~repro.api.seeding.seeded_spec`'s derived-seed injection, so a
  seeded campaign is reproducible across backends.
"""

import functools
import random

import pytest

from repro.api.builders import build_session, build_variations
from repro.api.registry import registry
from repro.api.seeding import derive_seed, seeded_spec
from repro.api.spec import SystemSpec, VariationSpec, keyed_address_spec, keyed_uid_spec
from repro.apps.httpd.server import make_httpd_factory
from repro.attacks.payloads import benign_request
from repro.core.variations.address import AddressPartitioning, KeyedAddressPartitioning
from repro.core.variations.uid import KeyedUIDVariation, OrbitUIDVariation, UIDVariation
from repro.engine.session import NVariantSession, SessionState
from repro.kernel.host import HTTP_PORT, build_standard_host
from repro.load import build_serving_session, keyed_secrets, restore
from repro.load.checkpoint import checkpoint
from repro.memory.partition import (
    KeyedRegionScheme,
    KeyedScheme,
    KeyedXorMaskScheme,
    PartitionSchemeError,
    XorMaskScheme,
    extended_orbit_scheme,
    high_bit_scheme,
    orbit_scheme,
)

#: Each keyed kind's constructor.
KEYED = {
    "keyed-orbit": KeyedRegionScheme,
    "keyed-address": functools.partial(KeyedRegionScheme, slide=True),
    "keyed-uid-xor": KeyedXorMaskScheme,
}
KEYED_KINDS = tuple(KEYED)


class TestKeyedSchemeConstruction:
    def test_keyed_kinds_are_keyed(self):
        for kind, construct in KEYED.items():
            scheme = construct(3)
            assert scheme.kind == kind
            assert isinstance(scheme, KeyedScheme)

    def test_public_schemes_are_not_keyed(self):
        public = (high_bit_scheme(), orbit_scheme(3), extended_orbit_scheme(3), XorMaskScheme.for_uids(3))
        for scheme in public:
            assert not isinstance(scheme, KeyedScheme)

    @pytest.mark.parametrize("kind", KEYED_KINDS)
    def test_same_seed_same_secret(self, kind):
        a = KEYED[kind](4, seed=99)
        b = KEYED[kind](4, seed=99)
        assert a.secret() == b.secret()

    @pytest.mark.parametrize("kind", KEYED_KINDS)
    def test_different_seeds_differ(self, kind):
        secrets = {KEYED[kind](4, seed=s).secret() for s in range(8)}
        assert len(secrets) > 1

    @pytest.mark.parametrize(
        "seed,secret",
        [
            (7, (165, 77, 202, 405055, 607639, 789620)),
            (20080625, (99, 129, 100, 1738142, 2367400, 3276149)),
        ],
    )
    def test_seeded_secrets_are_pinned(self, seed, secret):
        """Slices are drawn before offsets, so seeded specs keep their layouts."""
        assert KEYED["keyed-orbit"](3, seed=seed).secret() == secret[:3]
        assert KEYED["keyed-address"](3, seed=seed).secret() == secret

    def test_injected_rng_wins_over_seed(self):
        via_rng = KeyedRegionScheme(3, key_bits=8, rng=random.Random(5))
        via_seed = KeyedRegionScheme(3, key_bits=8, seed=5)
        assert via_rng.secret() == via_seed.secret()

    def test_key_bits_bounds_enforced(self):
        with pytest.raises(PartitionSchemeError):
            KeyedRegionScheme(3, key_bits=0)
        with pytest.raises(PartitionSchemeError):
            KeyedRegionScheme(3, key_bits=17)
        with pytest.raises(PartitionSchemeError):
            KeyedRegionScheme(5, key_bits=2)  # 2**2 slices < 5 variants
        with pytest.raises(PartitionSchemeError):
            KeyedXorMaskScheme(2, key_bits=32)

    def test_slices_are_distinct_and_in_range(self):
        scheme = KeyedRegionScheme(6, key_bits=5, seed=1, slide=True)
        assert len(set(scheme.slices)) == 6
        assert all(0 <= s < 32 for s in scheme.slices)
        assert all(0 <= o < (1 << (scheme.shift - 2)) + 1 for o in scheme.offsets)

    def test_uid_masks_are_pairwise_distinct(self):
        scheme = KeyedXorMaskScheme(5, key_bits=8, seed=3)
        # Unlike the public orbit, variant 0's mask is secret (not identity).
        assert len(set(scheme.masks)) == 5
        assert all(0 <= mask < (1 << 8) for mask in scheme.masks)


class TestRotation:
    @pytest.mark.parametrize("kind", KEYED_KINDS)
    def test_rotate_redraws_the_secret(self, kind):
        scheme = KEYED[kind](3, seed=7)
        before = scheme.secret()
        drawn = {before}
        for _ in range(6):
            scheme.rotate()
            drawn.add(scheme.secret())
        assert len(drawn) > 1

    def test_rotation_preserves_invariants(self):
        scheme = KeyedRegionScheme(4, key_bits=6, seed=11, slide=True)
        for _ in range(4):
            scheme.rotate()
            for index in range(4):
                base = scheme.base_of(index)
                assert scheme.partition_of(base) == index
                address = scheme.translate(index, 0x40)
                assert scheme.untranslate(index, address) == 0x40
                assert scheme.partition_of(address) == index

    def test_uid_variation_rotate_refreshes_cached_masks(self):
        variation = KeyedUIDVariation(num_variants=3, seed=2)
        before = tuple(variation.masks)
        decoded_before = variation.reexpression(1).inverse(variation.masks[1] ^ 1000)
        for _ in range(6):
            assert variation.rekey()
            if tuple(variation.masks) != before:
                break
        else:
            pytest.fail("six rotations never changed the masks")
        assert variation.masks == variation.scheme.masks
        assert variation.mask == variation.masks[1]
        decoded_after = variation.reexpression(1).inverse(variation.masks[1] ^ 1000)
        assert decoded_before == decoded_after == 1000

    def test_an_unkeyed_variation_reports_it_and_refuses_a_secret(self):
        variation = UIDVariation()
        assert variation.rekey() is False
        with pytest.raises(ValueError, match="not keyed"):
            variation.rekey((1, 2))

    def test_address_variation_rotate_delegates_to_scheme(self):
        variation = KeyedAddressPartitioning(num_variants=2, key_bits=6, seed=4)
        secrets = {variation.scheme.secret()}
        for _ in range(6):
            assert variation.rekey()
            secrets.add(variation.scheme.secret())
        assert len(secrets) > 1


class TestSessionRestart:
    def _session(self, spec):
        def factory(context):
            def program():
                result = yield context.libc.getuid()
                return result.value

            return program()

        return build_session(spec, build_standard_host(), factory, name="restart-test")

    def test_restart_rotates_keys_and_resets_state(self):
        spec = keyed_address_spec(2, key_bits=8, seed=1)
        session = self._session(spec)
        variation = next(iter(session.variations))
        before = variation.scheme.secret()
        session.run()
        assert session.state is SessionState.COMPLETED
        secrets = {before}
        for _ in range(6):
            session.restart(rotate_keys=True)
            assert session.state is SessionState.RUNNING
            assert session.rounds == 0
            secrets.add(variation.scheme.secret())
            session.run()
            assert session.state is SessionState.COMPLETED
        assert len(secrets) > 1

    def test_restart_without_rotation_keeps_the_key(self):
        spec = keyed_address_spec(2, key_bits=8, seed=1)
        session = self._session(spec)
        secret = next(iter(session.variations)).scheme.secret()
        session.run()
        session.restart(rotate_keys=False)
        assert next(iter(session.variations)).scheme.secret() == secret

    def test_restarted_session_still_computes(self):
        spec = keyed_uid_spec(2, seed=9)
        session = self._session(spec)
        session.run()
        variation = next(iter(session.variations))
        raw = session.result().variants[0].return_value
        first = variation.decode(0, raw)
        session.restart()
        session.run()
        assert session.state is SessionState.COMPLETED
        # The raw re-expressed value changes with the rotated key, but it
        # still decodes to the same semantic UID.
        rotated_raw = session.result().variants[0].return_value
        assert variation.decode(0, rotated_raw) == first


    def test_rotated_restart_keeps_serving_the_account_files(self):
        # The transformed httpd reads its unshared /etc/passwd-i and
        # /etc/group-i copies, whose UID columns carry each variant's
        # encoding: a rotation must rewrite them under the new masks, or the
        # first request after it diverges at uid_value.
        kernel = build_standard_host()
        session = build_session(
            keyed_uid_spec(2, seed=9),
            kernel,
            make_httpd_factory(transformed=True, max_requests=1),
            name="rotating-httpd",
        )
        variation = next(iter(session.variations))
        masks = set()
        for attempt in range(4):
            if attempt:
                session.restart(rotate_keys=True)
            masks.add(variation.masks)
            kernel.client_connect(HTTP_PORT, benign_request())
            result = session.run()
            assert result.alarms == [], [alarm.describe() for alarm in result.alarms]
            assert session.state is SessionState.COMPLETED
            response = kernel.network.connections[-1].response_bytes()
            assert response.startswith(b"HTTP/1.0 200 OK")
        assert len(masks) == 4


def _assert_on_current_key(session):
    """Every view of the session's one keyed variation agrees with its secret."""
    [(position, variation)] = [
        (position, variation)
        for position, variation in enumerate(session.variations)
        if isinstance(variation.scheme, KeyedScheme)
    ]
    secret = variation.scheme.secret()
    assert keyed_secrets(session) == ((position, secret),)
    for context in session.contexts:
        index = context.index
        if isinstance(variation, UIDVariation):
            # R_i is XOR with the i-th secret mask, so root encodes as the mask.
            assert variation.encode(index, 0) == secret[index]
            assert context.uid_codec.root == secret[index]
            passwd = session.kernel.fs.read_file(f"/etc/passwd-{index}").decode()
            root = next(line for line in passwd.splitlines() if line.startswith("root:"))
            assert int(root.split(":")[2]) == secret[index]
        else:
            # The secret is the slices, then (with slides) one offset each.
            slide = secret[session.num_variants + index] if len(secret) > session.num_variants else 0
            expected = (secret[index] << variation.scheme.shift) + slide
            assert context.process.address_space.partition_base() == expected


HAND_BUILT = {
    "orbit-uid-keyed-scheme": lambda: OrbitUIDVariation(3, scheme=KeyedXorMaskScheme(3, seed=11)),
    "address-keyed-orbit-scheme": lambda: AddressPartitioning(
        3, scheme=KeyedRegionScheme(3, seed=11)
    ),
}


class TestRekeyAgreement:
    """After any change of key, every derived view follows the new secret."""

    @pytest.mark.parametrize("build", HAND_BUILT.values(), ids=HAND_BUILT.keys())
    def test_a_rotating_restart_moves_a_hand_built_variation(self, build):
        def program(context):
            yield context.libc.exit(0)

        session = NVariantSession(build_standard_host(), program, [build()], num_variants=3)
        _assert_on_current_key(session)
        before = keyed_secrets(session)
        session.run()
        session.restart()
        assert keyed_secrets(session) != before
        _assert_on_current_key(session)

    @pytest.mark.parametrize(
        "spec", [keyed_uid_spec(2, seed=5), keyed_address_spec(2, seed=5)], ids=["uid", "address"]
    )
    def test_restart_and_restore_move_a_registered_variation(self, spec):
        session = build_serving_session(spec, "httpd", max_requests=1)
        before = keyed_secrets(session)
        session.restart()
        assert keyed_secrets(session) != before
        _assert_on_current_key(session)
        restored = restore(checkpoint(session))
        assert keyed_secrets(restored) == keyed_secrets(session)
        _assert_on_current_key(restored)


class TestSpecPlumbing:
    def test_keyed_variations_are_registered(self):
        assert "uid-keyed" in registry
        assert "address-keyed" in registry
        assert "seed" in registry.get("uid-keyed").parameters()
        assert "seed" in registry.get("address-keyed").parameters()

    def test_keyed_specs_round_trip(self):
        for spec in (
            keyed_address_spec(3, key_bits=7, seed=5),
            keyed_address_spec(2, slide=False),
            keyed_uid_spec(4, key_bits=12, seed=8),
        ):
            assert SystemSpec.from_dict(spec.to_dict()) == spec

    def test_keyed_specs_build(self):
        uid = build_variations(keyed_uid_spec(3, seed=1))[0]
        assert isinstance(uid, KeyedUIDVariation)
        assert uid.num_variants == 3
        address = build_variations(keyed_address_spec(3, seed=1, slide=False))[0]
        assert isinstance(address, KeyedAddressPartitioning)
        assert address.scheme.kind == "keyed-orbit"
        sliding = build_variations(keyed_address_spec(3, seed=1, slide=True))[0]
        assert sliding.scheme.kind == "keyed-address"

    def test_derive_seed_is_stable_and_spread(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert 0 <= derive_seed(123, "x") < (1 << 63)

    def test_seeded_spec_injects_derived_seeds(self):
        spec = keyed_address_spec(2, key_bits=6)
        seeded = seeded_spec(spec, 42)
        params = seeded.variations[0].params_dict()
        assert params["seed"] == derive_seed(42, spec.name, 0, "address-keyed")
        # Same root seed, same derived seed; explicit seeds are left alone.
        assert seeded_spec(spec, 42) == seeded
        pinned = keyed_address_spec(2, key_bits=6, seed=7)
        assert seeded_spec(pinned, 42) == pinned

    def test_seeded_spec_skips_unseeded_variations(self):
        from repro.api.spec import address_orbit_spec

        spec = address_orbit_spec(3)
        assert seeded_spec(spec, 42) is spec

    def test_seeded_spec_leaves_unknown_variations_to_the_build(self):
        spec = SystemSpec(name="typo", variations=(VariationSpec("no-such-variation"),))
        assert seeded_spec(spec, 42) is spec

    def test_seeded_spec_propagates_other_registry_errors(self, monkeypatch):
        def broken_get(name):
            raise RuntimeError("registry bug")

        monkeypatch.setattr(registry, "get", broken_get)
        with pytest.raises(RuntimeError, match="registry bug"):
            seeded_spec(keyed_address_spec(2, key_bits=6), 42)

    def test_seeded_build_reproduces_the_layout(self):
        spec = seeded_spec(keyed_address_spec(2, key_bits=8), 42)
        first = build_variations(spec)[0].scheme.secret()
        second = build_variations(spec)[0].scheme.secret()
        assert first == second
