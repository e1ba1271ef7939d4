"""Tests for the mini-C front end, the UID transformer, and the analysis layer."""

import pytest

from repro.analysis.perfmodel import CostParameters, PerformanceModel, percent_change
from repro.analysis.tables import render_key_values, render_table
from repro.apps.clients.webbench import WebBenchWorkload, drive_standalone
from repro.apps.httpd.csource import HTTPD_UID_SOURCE
from repro.core.variations.uid import UIDVariation
from repro.transform.analysis import UIDAnalysis
from repro.transform.lexer import LexError, TokenType, tokenize
from repro.transform.parser import ParseError, parse_source
from repro.transform.printer import print_unit
from repro.transform.report import ChangeCategory, TransformationReport
from repro.transform.uid_transform import transform_source


class TestLexer:
    def test_tokenizes_keywords_idents_numbers(self):
        tokens = tokenize("uid_t uid = 0x10;")
        kinds = [token.type for token in tokens]
        assert kinds[0] is TokenType.KEYWORD
        assert kinds[1] is TokenType.IDENT
        assert tokens[3].value == "0x10"

    def test_skips_comments(self):
        tokens = tokenize("// line\n/* block */ int x;")
        assert tokens[0].value == "int"

    def test_multichar_punct(self):
        values = [t.value for t in tokenize("a == b != c <= d >= e && f || g->h")]
        for punct in ("==", "!=", "<=", ">=", "&&", "||", "->"):
            assert punct in values

    def test_line_numbers_tracked(self):
        tokens = tokenize("int a;\nint b;\n")
        b_token = [t for t in tokens if t.value == "b"][0]
        assert b_token.line == 2

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("int a = `;")


class TestParser:
    def test_parses_function_and_globals(self):
        unit = parse_source("uid_t server_uid = 0;\nint main(void) { return 0; }\n")
        assert unit.globals[0].name == "server_uid"
        assert unit.function("main").return_type == "int"

    def test_parses_if_else_while_calls(self):
        source = """
        int f(uid_t uid) {
            int count = 0;
            while (count < 3) {
                if (uid == 0) { log_error("root", "f"); } else { count = count + 1; }
            }
            return count;
        }
        """
        unit = parse_source(source)
        assert len(unit.function("f").body) == 3

    def test_parses_struct_pointer_declarations(self):
        unit = parse_source("int f(void) { passwd *pw = getpwnam(\"x\"); if (pw == NULL) { return 1; } return 0; }")
        assert unit.function("f").body[0].pointer

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse_source("int f(void) { int x = 1 }")

    def test_roundtrip_through_printer(self):
        source = "uid_t g = 5;\nint f(uid_t u) {\n    if (u == g) {\n        return 1;\n    }\n    return 0;\n}\n"
        unit = parse_source(source)
        reparsed = parse_source(print_unit(unit))
        assert print_unit(reparsed) == print_unit(unit)

    def test_httpd_source_parses(self):
        unit = parse_source(HTTPD_UID_SOURCE)
        names = {function.name for function in unit.functions}
        assert {"unixd_setup_child", "drop_privileges", "worker_main"} <= names


class TestUIDAnalysis:
    def test_declared_uid_variables_found(self):
        unit = parse_source("int f(void) { uid_t u = getuid(); int other = 3; return 0; }")
        analysis = UIDAnalysis(unit)
        assert "u" in analysis.uid_variables("f")
        assert "other" not in analysis.uid_variables("f")

    def test_inference_through_assignment_chain(self):
        unit = parse_source("int f(void) { int a = getuid(); int b = a; return b; }")
        analysis = UIDAnalysis(unit)
        assert {"a", "b"} <= analysis.uid_variables("f")

    def test_field_access_is_uid_typed(self):
        unit = parse_source("int f(void) { passwd *pw = getpwnam(\"x\"); int u = pw->pw_uid; return u; }")
        analysis = UIDAnalysis(unit)
        assert "u" in analysis.uid_variables("f")

    def test_uid_influence_tracks_getpwuid_results(self):
        unit = parse_source(
            "int f(uid_t uid) { passwd *pw = getpwuid(uid); if (pw == NULL) { return 1; } return 0; }"
        )
        analysis = UIDAnalysis(unit)
        function = unit.function("f")
        condition = function.body[1].cond
        assert analysis.is_uid_influenced(condition, "f")

    def test_global_uid_variables_visible_everywhere(self):
        unit = parse_source("uid_t server_uid = 33;\nint f(void) { return server_uid; }\n")
        analysis = UIDAnalysis(unit)
        assert "server_uid" in analysis.uid_variables("f")


class TestUIDTransformer:
    def _transform(self, source):
        variation = UIDVariation()
        return transform_source(source, lambda uid: variation.encode(1, uid))

    def test_constants_reexpressed(self):
        unit, report = self._transform("int f(uid_t u) { if (u == 0) { return 1; } return 0; }")
        assert report.count(ChangeCategory.CONSTANT) == 1
        text = print_unit(unit)
        assert "0x7fffffff" in text.lower()

    def test_comparisons_become_cc_calls(self):
        unit, report = self._transform("int f(uid_t u, uid_t v) { if (u < v) { return 1; } return 0; }")
        assert report.count(ChangeCategory.COMPARISON) == 1
        assert "cc_lt(u, v)" in print_unit(unit)

    def test_implicit_comparison_expanded(self):
        unit, report = self._transform("int f(void) { if (!geteuid()) { return 1; } return 0; }")
        assert report.count(ChangeCategory.IMPLICIT_COMPARISON) == 1
        assert "cc_eq(geteuid(), 0x7fffffff)" in print_unit(unit).lower()

    def test_uid_value_wrapping_for_library_calls(self):
        unit, report = self._transform("int f(uid_t u) { passwd *pw = getpwuid(u); return 0; }")
        assert report.count(ChangeCategory.UID_VALUE) == 1
        assert "getpwuid(uid_value(u))" in print_unit(unit)

    def test_kernel_calls_not_wrapped_in_uid_value(self):
        unit, report = self._transform("int f(uid_t u) { setuid(u); return 0; }")
        assert report.count(ChangeCategory.UID_VALUE) == 0
        assert "setuid(u)" in print_unit(unit)

    def test_cond_chk_wraps_influenced_conditionals(self):
        unit, report = self._transform(
            "int f(uid_t u) { passwd *pw = getpwuid(u); if (pw == NULL) { return 1; } return 0; }"
        )
        assert report.count(ChangeCategory.COND_CHK) == 1
        assert "cond_chk((pw == NULL))" in print_unit(unit)

    def test_cc_conditions_not_double_wrapped(self):
        unit, report = self._transform("int f(uid_t u) { if (u == 0) { return 1; } return 0; }")
        text = print_unit(unit)
        assert "cond_chk(cc_eq" not in text

    def test_original_unit_not_mutated(self):
        source = "uid_t g = 0;\n"
        from repro.transform.parser import parse_source as parse

        variation = UIDVariation()
        unit = parse(source)
        from repro.transform.uid_transform import UIDVariationTransformer

        UIDVariationTransformer(lambda uid: variation.encode(1, uid)).transform(unit)
        assert unit.globals[0].init.value == 0

    def test_httpd_source_counts_cover_all_categories(self):
        _, report = self._transform(HTTPD_UID_SOURCE)
        for category in (
            ChangeCategory.CONSTANT,
            ChangeCategory.UID_VALUE,
            ChangeCategory.COMPARISON,
            ChangeCategory.COND_CHK,
        ):
            assert report.count(category) > 0
        assert report.total_paper_categories >= 40

    def test_report_rows_include_paper_totals(self):
        report = TransformationReport()
        rows = report.comparison_rows()
        assert rows[-1][2] == 73

    def test_transformed_httpd_source_reparses(self):
        unit, _ = self._transform(HTTPD_UID_SOURCE)
        reparsed = parse_source(print_unit(unit))
        assert len(reparsed.functions) == len(unit.functions)


class TestAnalysisLayer:
    def test_render_table_alignment_and_title(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        assert text.splitlines()[0] == "T"
        assert "333" in text

    def test_render_table_validates_row_width(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["1", "2"]])

    def test_render_key_values(self):
        text = render_key_values([("key", 1), ("longer-key", 2)])
        assert "key        : 1" in text

    def test_percent_change(self):
        assert percent_change(100, 50) == -50.0
        assert percent_change(0, 50) == 0.0

    def test_perfmodel_demands_scale_with_variants(self):
        model = PerformanceModel()
        single = drive_standalone(WebBenchWorkload(total_requests=6), transformed=False)
        demand = model.demands(single)
        assert demand.cpu_us > 0 and demand.io_us > 0
        doubled = model.demands(
            dataclasses_replace(single, num_variants=2)
        )
        assert doubled.cpu_us > demand.cpu_us

    def test_perfmodel_saturated_uses_bottleneck(self):
        model = PerformanceModel(CostParameters(per_request_cpu=1000.0, io_per_byte=0.0001))
        measurement = drive_standalone(WebBenchWorkload(total_requests=6), transformed=False)
        saturated = model.saturated(measurement, clients=10)
        unsaturated = model.unsaturated(measurement)
        assert saturated.throughput_kbps > unsaturated.throughput_kbps
        assert saturated.latency_ms > 0


def dataclasses_replace(measurement, **changes):
    """Small helper: dataclasses.replace for the measurement record."""
    import dataclasses

    return dataclasses.replace(measurement, **changes)
