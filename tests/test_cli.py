from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from poloids import PartialMagma, cli, enumeration
from poloids.classify import classify
from poloids.cli import main

RIGHT_ZERO = "elements: x y\nx: x y\ny: x y\n"
Z2 = "elements: e g\ne: e g\ng: g e\n"
TWO_UNIT = "elements: e1 e2\ne1: e1 -\ne2: - e2\n"
ARROW_NAMES = "elements: a->b c\na->b: a->b -\nc: - c\n"
OVERLAPPING_IDS = (
    "set: 1 2 3\n"
    "mode: supset\n"
    "map p: 1->1 2->2\n"
    "map q: 2->2 3->3\n"
)
GAP_MAGMA = (
    "set: 1 2\n"
    "mode: supset\n"
    "map f: 1->1\n"
    "map g: 1->1 2->2\n"
)

EMBEDDED_TWO_UNIT = (  # what embed writes for TWO_UNIT
    "set: e1 e2\n"
    "mode: supset\n"
    "map e1: e1->e1\n"
    "cod e1: e1\n"
    "map e2: e2->e2\n"
    "cod e2: e2\n"
    "iso:\n"
    "e1 -> e1\n"
    "e2 -> e2\n"
)
IDENTITY_HOM = "hom: e1 -> e1\nhom: e2 -> e2\n"  # on TWO_UNIT


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


class TestClassify:
    def test_right_zero_band(self, write, capsys):
        code = main(["classify", write("rz.magma", RIGHT_ZERO)])
        out = capsys.readouterr().out
        assert code == 0
        assert "right_poloid: yes" in out
        assert "normal: no" in out
        assert "poloid: no" in out

    def test_z2_is_a_group(self, write, capsys):
        code = main(["classify", write("z2.magma", Z2)])
        assert code == 0
        assert "group: yes" in capsys.readouterr().out

    def test_json_output(self, write, capsys):
        code = main(["classify", "--json", write("z2.magma", Z2)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdicts"]["group"] is True
        assert data["inverses"] == {"e": "e", "g": "g"}

    def test_map_magma_input(self, write, capsys):
        code = main(["classify", write("ids.maps", OVERLAPPING_IDS)])
        out = capsys.readouterr().out
        assert code == 0
        assert "right_poloid: yes" in out and "unit_posetal: yes" in out

    def test_non_closed_map_magma_is_a_parse_failure(self, write, capsys):
        text = "set: 1 2\nmode: supset\nmap s: 1->2 2->1\n"
        code = main(["classify", write("open.maps", text)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: map magma is not closed under composition (not-closed s,s)\n"

    def test_nowhere_defined_map_magma_is_a_parse_failure(self, write, capsys):
        # like a table file whose cells are all '-', it is bad input
        text = "set: 1 2\nmode: supset\nmap f: 1->2\n"
        assert main(["classify", write("nowhere.maps", text)]) == 2
        assert capsys.readouterr().err == "error: the operation must be defined on at least one pair\n"

    def test_spaced_set_head_is_a_map_magma(self, write, capsys):
        # the head rule of parse_map_magma, which compose reads it by
        path = write("spaced.maps", GAP_MAGMA.replace("set:", "set :"))
        assert main(["compose", path, "g", "f"]) == 0
        assert capsys.readouterr().out == "Id[1]\n"
        assert main(["classify", path]) == 0
        spaced = capsys.readouterr().out
        main(["classify", write("gap.maps", GAP_MAGMA)])
        assert spaced == capsys.readouterr().out

    @pytest.mark.parametrize(
        "head", ["elements:", "set:", "mode:", "map e1:", "cod e1:", "iso:", "hom:"])
    def test_every_heading_allows_a_space_before_its_colon(self, write, capsys, head):
        text = {"elements:": TWO_UNIT, "hom:": IDENTITY_HOM}.get(head, EMBEDDED_TWO_UNIT)
        spaced = text.replace(head, head[:-1] + " :")
        assert spaced != text
        src, outs = write("two.magma", TWO_UNIT), []
        for name, body in (("plain", text), ("spaced", spaced)):
            path = write(name, body)
            argv = ["check-hom", src, src, path] if head == "hom:" else ["classify", path]
            assert main(argv) == 0, capsys.readouterr().err
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_missing_file(self, capsys):
        assert main(["classify", "no-such-file"]) == 2

    def test_bad_file(self, write, capsys):
        assert main(["classify", write("bad.magma", "elements: a a\n")]) == 2

    def test_duplicate_maps_are_a_parse_failure(self, write, capsys):
        text = "set: 1 2\nmode: supset\nmap f: 1->1\nmap g: 1->1\n"
        assert main(["classify", write("dup.maps", text)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_utf8_bom_is_dropped(self, tmp_path, capsys):
        for name, text in (("z2.magma", Z2), ("gap.maps", GAP_MAGMA)):
            plain, bom = tmp_path / name, tmp_path / ("bom-" + name)
            plain.write_text(text, encoding="utf-8")
            bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
            assert main(["classify", "--json", str(plain)]) == 0
            want = capsys.readouterr().out
            assert main(["classify", "--json", str(bom)]) == 0
            assert capsys.readouterr().out == want
        hom = tmp_path / "id.hom"
        hom.write_bytes(b"\xef\xbb\xbfhom: e -> e\nhom: g -> g\n")
        z2 = str(tmp_path / "bom-z2.magma")
        assert main(["check-hom", z2, z2, str(hom)]) == 0
        assert "homomorphism: yes" in capsys.readouterr().out

    def test_non_utf8_file_is_a_parse_failure(self, tmp_path, capsys):
        path = tmp_path / "latin1.magma"
        path.write_bytes("elements: \xe9\n\xe9: \xe9\n".encode("latin-1"))
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_codomain_mode_without_cod_lines_is_a_parse_failure(self, write, capsys):
        text = "set: 1 2\nmode: codomain\nmap f: 1->1\n"
        assert main(["classify", write("nocod.maps", text)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_golden_text_output(self, write, capsys):
        main(["classify", write("two.magma", TWO_UNIT)])
        out = capsys.readouterr().out
        assert out == (
            "elements: e1 e2\n"
            "semigroupoid: yes\n"
            "poloid: yes\n"
            "groupoid: yes\n"
            "total: no\n"
            "monoid: no\n"
            "group: no\n"
            "right_directed_semigroupoid: yes\n"
            "right_poloid: yes\n"
            "normal: yes\n"
            "unit_posetal: yes\n"
            "units: e1 e2\n"
            "left_units: e1 e2\n"
            "right_units: e1 e2\n"
            "eps: e1->e1 e2->e2\n"
            "vareps: e1->e1 e2->e2\n"
            "phi: e1->e1 e2->e2\n"
            "inverses: e1->e1 e2->e2\n"
            "witnesses:\n"
            "  total: undefined-cell e1,e2\n"
            "  monoid: extra-unit e1,e2\n"
            "  group: extra-unit e1,e2\n"
        )

    def test_empty_lists_print_no_trailing_space(self, write, capsys):
        path = write("rz.magma", RIGHT_ZERO)
        main(["classify", path])
        lines = capsys.readouterr().out.splitlines()
        assert lines[11:14] == ["units:", "left_units: x y", "right_units:"]
        main(["classify", "--json", path])
        report = json.loads(capsys.readouterr().out)
        assert (report["units"], report["right_units"]) == ([], [])

    def test_deterministic(self, write, capsys):
        path = write("rz.magma", RIGHT_ZERO)
        main(["classify", path])
        first = capsys.readouterr().out
        main(["classify", path])
        assert capsys.readouterr().out == first

    def test_internal_error_exits_4(self, write, capsys, monkeypatch):
        def broken(m):
            raise RuntimeError("effective units not unique in a semigroupoid")

        monkeypatch.setattr("poloids.cli.classify", broken)
        code = main(["classify", write("z2.magma", Z2)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == "internal error: effective units not unique in a semigroupoid\n"
        assert captured.out == ""


# Input rules that the constructors check on behalf of the parsers,
# one file breaking each: each must still be a plain parse failure.
_MAPS_HEAD = "set: 1 2\nmode: supset\n"
_CONSTRUCTOR_RULES = {
    "no-elements": "elements:\n",
    "invalid-element-token": "elements: -\n-: -\n",
    "duplicate-element": "elements: a a\na: a a\na: a a\n",
    "all-undefined": "elements: a b\na: - -\nb: - -\n",
    "empty-ground-set": "set:\nmode: supset\nmap f: 1->1\n",
    "duplicate-ground-point": "set: 1 1\nmode: supset\nmap f: 1->1\n",
    "no-maps": _MAPS_HEAD,
    "pair-off-ground": _MAPS_HEAD + "map f: 1->3\n",
    "pair-from-off-ground": _MAPS_HEAD + "map f: 3->1\n",
    "repeated-point": _MAPS_HEAD + "map f: 1->1 1->2\n",
    "empty-domain": _MAPS_HEAD + "map f:\n",
    "duplicate-map-name": _MAPS_HEAD + "map f: 1->1\nmap f: 2->2\n",
    "cod-point-off-ground": _MAPS_HEAD + "map f: 1->1\ncod f: 1 5\n",
    "cod-point-off-ground-first": _MAPS_HEAD + "map f: 1->1\ncod f: 5 1\n",
    "duplicate-cod-point": _MAPS_HEAD + "map f: 1->1\ncod f: 1 1\n",
    "cod-misses-image": _MAPS_HEAD + "map f: 1->2\ncod f: 1\n",
    "mixed-cod": _MAPS_HEAD + "map f: 1->1\ncod f: 1\nmap g: 2->2\n",
}


def _renamed(m: PartialMagma, names) -> PartialMagma:
    return PartialMagma(tuple(names[:m.size]), m.table)


class TestJsonReport:
    # classify --json renders its report with cli._json, which must print
    # exactly what json.dumps(report, indent=2) prints

    @staticmethod
    def assert_renders_as_json_dumps(m):
        d = classify(m).to_dict()
        assert cli._json(d) == json.dumps(d, indent=2), m

    def test_every_poloid_and_normal_class_up_to_five_elements(self):
        count = 0
        for name in ("poloid", "normal"):
            for n in range(1, 6):
                for m in enumeration.filtered(n, name, up_to_iso=True):
                    self.assert_renders_as_json_dumps(m)
                    count += 1
        assert count == 399 + 2634

    def test_seeded_random_tables(self):
        rng = random.Random(37)
        for _ in range(2000):
            n = rng.randint(4, 8)
            density = rng.uniform(0.1, 0.9)
            table = [[rng.randrange(n) if rng.random() < density else None for _ in range(n)]
                     for _ in range(n)]
            table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            names = [f"x{i}" for i in range(n)]
            self.assert_renders_as_json_dumps(PartialMagma(names, table))

    @pytest.mark.parametrize("names", [
        ("é", "λ", "éλ"),
        ('"', "\\", 'q"\\'),
        ("é\"", "\\λ", "a\x01b"),
    ])
    def test_names_that_json_escapes(self, names):
        for n in (1, 2, 3):
            for name in ("poloid", "normal", "right_directed_semigroupoid"):
                for m in enumeration.filtered(n, name, up_to_iso=True):
                    self.assert_renders_as_json_dumps(_renamed(m, names))

    def test_classify_prints_what_json_dumps_prints(self, write, capsys):
        text = 'elements: é "q \\\\\né: é - -\n"q: - "q -\n\\\\: - - \\\\\n'
        assert main(["classify", "--json", write("names.magma", text)]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        report = json.loads(out)
        assert report["elements"] == ["é", '"q', "\\\\"]
        assert report["verdicts"]["groupoid"] is True
        assert report["inverses"] == {"é": "é", '"q': '"q', "\\\\": "\\\\"}

    @pytest.mark.parametrize("value", [1, 0, 1.0, (), "x".encode()])
    def test_other_value_types_are_refused(self, value):
        # an int is not rendered as the bool it equals
        with pytest.raises(KeyError):
            cli._json({"a": [value]})


class TestConstructorRulesInFiles:
    @pytest.mark.parametrize("text", list(_CONSTRUCTOR_RULES.values()), ids=list(_CONSTRUCTOR_RULES))
    def test_exits_2_without_traceback(self, write, capsys, text):
        assert main(["classify", write("bad.txt", text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("rule", ["empty-ground-set", "duplicate-ground-point"])
    def test_ground_set_is_blamed_on_no_map(self, write, capsys, rule):
        assert main(["classify", write("bad.txt", _CONSTRUCTOR_RULES[rule])]) == 2
        assert capsys.readouterr().err == "error: ground set must be non-empty and duplicate-free\n"


# Layout rules that the parsers check themselves, one file breaking each.
_LAYOUT_RULES = {
    "empty-file": "",
    "comments-only": "# nothing here\n",
    "row-without-colon": "elements: a\na a\n",
    "invalid-point-token": "set: 1 -\nmode: supset\nmap f: 1->1\n",
    "second-line-not-mode": "set: 1 2\nmodes: supset\nmap f: 1->1\n",
    "body-line-without-colon": _MAPS_HEAD + "map f 1->1\n",
    "bad-map-head": _MAPS_HEAD + "fn f: 1->1\n",
    "bad-cod-head": _MAPS_HEAD + "map f: 1->1\ncod: 1\n",
    "invalid-map-name": _MAPS_HEAD + "map -: 1->1\n",
    "cod-before-its-map": _MAPS_HEAD + "cod f: 1\nmap f: 1->1\n",
    "cod-after-another-map": _MAPS_HEAD + "map f: 1->1\nmap g: 2->2\ncod f: 1\n",
    "duplicate-cod": _MAPS_HEAD + "map f: 1->1\ncod f: 1\ncod f: 1 2\n",
}
_MORPHISM_RULES = {
    "not-a-hom-line": "hom: e1 -> e1\nmap: e2 -> e2\n",
    "missing-arrow": "hom: e1 -> e1\nhom: e2 e2\n",
    "mapped-twice": "hom: e1 -> e1\nhom: e1 -> e2\n",
}


class TestLayoutRulesInFiles:
    @staticmethod
    def _one_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", list(_LAYOUT_RULES.values()), ids=list(_LAYOUT_RULES))
    def test_structure_file(self, write, capsys, text):
        assert main(["classify", write("bad.txt", text)]) == 2
        self._one_error_line(capsys)

    @pytest.mark.parametrize("text", list(_MORPHISM_RULES.values()), ids=list(_MORPHISM_RULES))
    def test_morphism_file(self, write, capsys, text):
        src = write("two.magma", TWO_UNIT)
        assert main(["check-hom", src, src, write("bad.hom", text)]) == 2
        self._one_error_line(capsys)


class TestEmbed:
    def test_two_unit_groupoid(self, write, capsys):
        code = main(["embed", write("two.magma", TWO_UNIT)])
        out = capsys.readouterr().out
        assert code == 0
        assert "cod e1: e1" in out and "iso:" in out

    def test_z2_to_file(self, write, tmp_path, capsys):
        out_file = tmp_path / "embedding.maps"
        code = main(["embed", write("z2.magma", Z2), "-o", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert "map g: e->g g->e" in text

    def test_non_poloid_is_a_precondition_failure(self, write, capsys):
        code = main(["embed", write("rz.magma", RIGHT_ZERO)])
        assert code == 3

    def test_pre_flag_on_non_normal(self, write, capsys):
        code = main(["embed", write("rz.magma", RIGHT_ZERO), "--pre"])
        err = capsys.readouterr().err
        assert code == 3
        assert "x,y" in err

    def test_pre_flag_on_poloid(self, write, capsys):
        code = main(["embed", write("two.magma", TWO_UNIT), "--pre"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cod" not in out  # prefunction image

    def test_output_reads_back(self, write, tmp_path, capsys):
        # the written file, iso block included, is a map-magma file
        out_file = str(tmp_path / "z2.maps")
        assert main(["embed", write("z2.magma", Z2), "-o", out_file]) == 0
        assert main(["classify", out_file]) == 0
        assert "group: yes" in capsys.readouterr().out
        assert main(["compose", out_file, "g", "g"]) == 0
        assert capsys.readouterr().out == "Id[e,g]\n"

    @pytest.mark.parametrize("pre", [[], ["--pre"]])
    def test_arrows_in_element_names_read_back(self, write, tmp_path, capsys, pre):
        out_file = str(tmp_path / "arrows.maps")
        assert main(["embed", write("arrows.magma", ARROW_NAMES), "-o", out_file] + pre) == 0
        assert main(["classify", out_file]) == 0
        assert "poloid: yes" in capsys.readouterr().out.splitlines()
        assert main(["compose", out_file, "a->b", "a->b"]) == 0
        assert main(["compose", out_file, "a->b", "c"]) == 0
        assert capsys.readouterr().out == "Id[a->b]\nundefined\n"

    def test_ambiguous_pair_is_bad_input(self, write, capsys):
        path = write("ambiguous.maps", "set: a b->c a->b c\nmode: supset\nmap f: a->b->c\n")
        assert main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert "ambiguous pair 'a->b->c'" in err and "Traceback" not in err

    @pytest.mark.parametrize("line", ["e => e", "e ->", "e -> h", "iso:"])
    def test_bad_iso_line(self, write, tmp_path, capsys, line):
        out_file = tmp_path / "z2.maps"
        main(["embed", write("z2.magma", Z2), "-o", str(out_file)])
        path = write("bad.maps", out_file.read_text() + line + "\n")
        assert main(["classify", path]) == 2
        assert "iso" in capsys.readouterr().err


class TestEnumerate:
    def test_one_element(self, capsys):
        code = main(["enumerate", "-n", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "partial_magmas: 1" in out and "group: 1" in out

    def test_two_elements(self, capsys):
        main(["enumerate", "-n", "2"])
        out = capsys.readouterr().out
        assert "partial_magmas: 80" in out

    def test_filter(self, capsys):
        code = main(["enumerate", "-n", "2", "--filter", "poloid"])
        assert code == 0
        assert "poloid: 5" in capsys.readouterr().out

    def test_filter_up_to_iso(self, capsys):
        main(["enumerate", "-n", "2", "--filter", "group"])
        assert "group: 2" in capsys.readouterr().out
        main(["enumerate", "-n", "2", "--filter", "group", "--up-to-iso"])
        assert "group: 1" in capsys.readouterr().out

    def test_emit(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "out"
        code = main(
            ["enumerate", "-n", "2", "--filter", "group", "--emit", str(out_dir)]
        )
        assert code == 0
        files = sorted(out_dir.glob("*.magma"))
        assert len(files) == 2
        from poloids import parse_magma

        for f in files:
            assert parse_magma(f.read_text()).size == 2
        # a target that cannot be made a directory: no count is claimed
        capsys.readouterr()
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["enumerate", "-n", "1", "--emit", str(blocker)]) == 2
        assert capsys.readouterr().out == ""
        # and it is refused before the walk: the stream is never iterated
        pulled = []
        walk = enumeration.filtered

        def spy(*args, **kwargs):
            for m in walk(*args, **kwargs):
                pulled.append(m)
                yield m

        monkeypatch.setattr(enumeration, "filtered", spy)
        assert main(["enumerate", "-n", "2", "--emit", str(blocker)]) == 2
        assert capsys.readouterr().out == "" and pulled == []
        assert blocker.read_text() == ""
        # as is a target under a file, which no mkdir could make
        assert main(["enumerate", "-n", "2", "--emit", str(blocker / "sub")]) == 2
        assert capsys.readouterr().out == "" and pulled == []
        assert blocker.read_text() == ""
        monkeypatch.undo()
        # a directory an earlier emit filled is refused before the walk:
        # nothing is printed or written, and its files stay as they were
        all_dir = tmp_path / "all"
        assert main(["enumerate", "-n", "2", "--emit", str(all_dir)]) == 0
        capsys.readouterr()
        before = {f.name: f.read_text() for f in all_dir.iterdir()}
        code = main(["enumerate", "-n", "2", "--filter", "group", "--up-to-iso",
                     "--emit", str(all_dir)])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert {f.name: f.read_text() for f in all_dir.iterdir()} == before
        assert len(before) == 80
        # an empty directory is taken
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["enumerate", "-n", "2", "--filter", "group", "--emit", str(empty)]) == 0
        assert capsys.readouterr().out == "group: 2\n"
        assert len(list(empty.iterdir())) == 2

    def test_emit_without_filter(self, tmp_path, capsys):
        # the one request that writes out all_magmas
        out_dir = tmp_path / "all"
        assert main(["enumerate", "-n", "2", "--emit", str(out_dir)]) == 0
        assert capsys.readouterr().out == "partial_magmas: 80\n"
        files = sorted(out_dir.glob("*.magma"))
        assert len(files) == 80
        from poloids import parse_magma
        from poloids.enumeration import all_magmas

        assert [parse_magma(f.read_text()) for f in files] == list(all_magmas(2))

    def test_bound(self, capsys):
        assert main(["enumerate", "-n", "4"]) == 3
        assert main(["enumerate", "-n", "5", "--filter", "group"]) == 3
        assert main(["enumerate", "-n", "6", "--filter", "group", "--up-to-iso"]) == 3
        assert main(["enumerate", "-n", "4", "--filter", "total", "--up-to-iso"]) == 3
        assert main(["enumerate", "-n", "4", "--up-to-iso"]) == 3
        capsys.readouterr()
        assert main(["enumerate", "-n", "5", "--filter", "group", "--up-to-iso"]) == 0
        assert capsys.readouterr().out == "group: 1\n"


class TestCompose:
    def test_defined_composite(self, write, capsys):
        code = main(["compose", write("gap.maps", GAP_MAGMA), "g", "f"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "Id[1]"

    def test_undefined_composite(self, write, capsys):
        code = main(["compose", write("gap.maps", GAP_MAGMA), "f", "g"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "undefined"

    def test_self_composite(self, write, capsys):
        main(["compose", write("gap.maps", GAP_MAGMA), "f", "f"])
        assert capsys.readouterr().out.strip() == "Id[1]"

    def test_unknown_name(self, write, capsys):
        assert main(["compose", write("gap.maps", GAP_MAGMA), "f", "bogus"]) == 2


class TestCheckHom:
    def test_identity(self, write, capsys):
        src = write("a.magma", TWO_UNIT)
        hom = write("id.hom", "hom: e1 -> e1\nhom: e2 -> e2\n")
        code = main(["check-hom", src, src, hom])
        out = capsys.readouterr().out
        assert code == 0
        assert "homomorphism: yes" in out
        assert "reflects_definedness: yes" in out

    def test_collapse(self, write, capsys):
        src = write("a.magma", TWO_UNIT)
        dst = write("b.magma", "elements: e\ne: e\n")
        hom = write("c.hom", "hom: e1 -> e\nhom: e2 -> e\n")
        code = main(["check-hom", src, dst, hom])
        out = capsys.readouterr().out
        assert code == 0
        assert "homomorphism: yes" in out
        assert "reflects_definedness: no" in out
        assert "witness: definedness e1,e2" in out

    def test_non_homomorphism(self, write, capsys):
        src = write("z2.magma", Z2)
        hom = write("bad.hom", "hom: e -> g\nhom: g -> e\n")
        code = main(["check-hom", src, src, hom])
        out = capsys.readouterr().out
        assert code == 1
        assert "homomorphism: no" in out

    def test_arrows_in_element_names(self, write, capsys):
        from poloids import Morphism, parse_magma, serialize_morphism

        m = parse_magma(ARROW_NAMES)
        text = serialize_morphism(Morphism(m, m, (0, 1)))
        assert text == "hom: a->b -> a->b\nhom: c -> c\n"
        src = write("arrows.magma", ARROW_NAMES)
        assert main(["check-hom", src, src, write("id.hom", text)]) == 0
        assert capsys.readouterr().out == "homomorphism: yes\nreflects_definedness: yes\n"

    @pytest.mark.parametrize("text", [
        "hom: zz -> e1\nhom: e2 -> e2\n", "hom: e1 -> zz\nhom: e2 -> e2\n",
    ], ids=["source", "target"])
    def test_unknown_element(self, write, capsys, text):
        src = write("a.magma", TWO_UNIT)
        assert main(["check-hom", src, src, write("zz.hom", text)]) == 2
        assert capsys.readouterr().err == "error: unknown element 'zz'\n"

    def test_non_poloid_source(self, write, capsys):
        src = write("rz.magma", RIGHT_ZERO)
        hom = write("id.hom", "hom: x -> x\nhom: y -> y\n")
        assert main(["check-hom", src, src, hom]) == 3


class TestIso:
    def test_isomorphic_pair(self, write, capsys):
        a = write("a.magma", Z2)
        b = write("b.magma", "elements: u v\nu: u v\nv: v u\n")
        code = main(["iso", a, b])
        out = capsys.readouterr().out
        assert code == 0
        assert "isomorphism: yes" in out
        assert "e -> u" in out and "g -> v" in out

    def test_non_isomorphic_pair(self, write, capsys):
        a = write("a.magma", Z2)
        b = write("b.magma", "elements: e a\ne: e a\na: a a\n")
        code = main(["iso", a, b])
        assert code == 1
        assert "isomorphism: no" in capsys.readouterr().out

    def test_poloid_vs_its_cayley_image(self, write, tmp_path, capsys):
        src = write("two.magma", TWO_UNIT)
        embedded = tmp_path / "image.maps"
        main(["embed", src, "-o", str(embedded)])
        code = main(["iso", src, str(embedded)])
        assert code == 0
        assert "isomorphism: yes" in capsys.readouterr().out


class TestParserReuse:
    # one parser serves every call in a process; failed and --help calls
    # leave it as it was, and handlers are looked up on each call

    def test_bad_calls_change_nothing(self, write, tmp_path, capsys, monkeypatch):
        z2 = write("z2.magma", Z2)
        requests = [
            ["classify", z2],
            ["classify", "--json", write("ids.maps", OVERLAPPING_IDS)],
            ["embed", z2],
            ["embed", write("two.magma", TWO_UNIT), "--pre", "-o", str(tmp_path / "x.maps")],
            ["enumerate", "-n", "2", "--filter", "poloid", "--up-to-iso"],
            ["enumerate", "-n", "1"],
        ]

        def run_all():
            outcomes = []
            for argv in requests:
                code = main(argv)
                outcomes.append((code, capsys.readouterr().out))
            return outcomes

        before = run_all()
        assert [code for code, _ in before] == [0] * len(requests)

        def no_rebuild():
            raise AssertionError("parser built twice")

        monkeypatch.setattr(cli, "build_parser", no_rebuild)
        monkeypatch.setattr(cli, "_build", no_rebuild)
        for argv, code, err in [
            (["frobnicate"], 2, "invalid choice"),
            (["enumerate", "--filter", "poloid"], 2, "-n"),
            (["--help"], 0, ""),
            (["embed", "--help"], 0, ""),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
            assert err in capsys.readouterr().err
        assert run_all() == before

    def test_enumerate_help_names_the_bounds(self, capsys, monkeypatch):
        monkeypatch.setattr(enumeration, "ISO_BOUND", 17)
        monkeypatch.setattr(enumeration, "RAW_BOUND", 13)
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["enumerate", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "up to 17 elements with --filter, 13 without" in text

    def test_handler_is_looked_up_per_call(self, write, capsys, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "classify", lambda args: 7)
        assert main(["classify", write("z2.magma", Z2)]) == 7


class TestOneParsePerCall:
    # a call that starts with a command is parsed by that command's own
    # parser alone, with the same exit code, stdout and stderr as the full
    # parser's parse followed by the handler

    @staticmethod
    def _full_parse(argv):
        return cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [
        [], ["frobnicate"], ["class", "x"], ["classify"], ["classify", "no-such-file"],
        ["classify", "--bogus", "Z2"], ["classify", "Z2", "--bogus"], ["classify", "--", "Z2"],
        ["classify", "Z2", "--", "--json"], ["--"], ["--", "classify", "Z2"], ["-h"],
        ["classify", "-h"], ["classify", "Z2", "--he"], ["enumerate", "-n=2"], ["enumerate", "-n2"],
        ["enumerate", "-n", "x"], ["classify", "--js", "Z2"], ["classify", "Z2", "extra"],
        ["classify", "Z2", "a", "--b", "-c"], ["compose", "MAPS", "f", "g", "h"],
        ["compose", "MAPS", "f"], ["iso", "Z2", "Z2", "Z2"], ["-x", "classify", "Z2"],
    ])
    def test_same_outcome_as_the_full_parse(self, write, capsys, monkeypatch, argv):
        files = {"Z2": write("z2.magma", Z2), "MAPS": write("gap.maps", GAP_MAGMA)}
        argv = [files.get(a, a) for a in argv]

        def run():
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            return code, *capsys.readouterr()

        once = run()
        monkeypatch.setattr(cli, "_parse", self._full_parse)
        assert run() == once

    @pytest.mark.parametrize("argv", [
        ["classify", "--json", "x"], ["embed", "x", "--pre", "-o", "y"], ["embed", "x"],
        ["enumerate", "-n2", "--filter", "poloid", "--up-to-iso"], ["enumerate", "-n", "1"],
        ["compose", "m", "f", "g"], ["check-hom", "a", "b", "c"], ["iso", "a", "b"],
    ])
    def test_same_arguments_as_the_full_parse(self, argv):
        assert cli._parse(argv) == self._full_parse(argv)

    @pytest.mark.parametrize("ending, bom", [("\r\n", b""), ("\r", b""), ("\r\n", b"\xef\xbb\xbf")])
    def test_line_endings_and_bom(self, tmp_path, capsys, ending, bom):
        texts = {"z2.magma": Z2, "two.magma": TWO_UNIT, "gap.maps": GAP_MAGMA,
                 "ids.maps": OVERLAPPING_IDS, "id.hom": IDENTITY_HOM}
        requests = [["classify", "--json", "z2.magma"], ["classify", "gap.maps"],
                    ["classify", "--json", "ids.maps"], ["compose", "gap.maps", "g", "f"],
                    ["check-hom", "two.magma", "two.magma", "id.hom"], ["iso", "z2.magma", "z2.magma"]]
        outcomes = []
        for name, end, prefix in (("lf", "\n", b""), ("other", ending, bom)):
            (tmp_path / name).mkdir()
            for file, text in texts.items():
                (tmp_path / name / file).write_bytes(prefix + text.replace("\n", end).encode())
            runs = []
            for argv in requests:
                code = main([str(tmp_path / name / a) if a in texts else a for a in argv])
                runs.append((code, *capsys.readouterr()))
            outcomes.append(runs)
        assert [code for code, _, _ in outcomes[0]] == [0] * len(requests)
        assert outcomes[1] == outcomes[0]

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_offset_of_a_bad_byte(self, tmp_path, capsys, bom):
        path = tmp_path / "bad.magma"
        path.write_bytes(bom + b"elements: a b c\xff\n")
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (invalid start byte at byte 15)\n")

    def test_directory(self, tmp_path, capsys):
        assert main(["classify", f"{tmp_path}/"]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


_TOKENS = ("elements:", "set:", "mode:", "supset", "codomain", "map", "cod", "hom:", "iso:",
           "->", "-", ":", "#", "e", "g", "x", "y", "1", "2", " ", "\n")
_CONTENTS = st.one_of(
    st.text(max_size=80),
    st.binary(max_size=80),
    st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join),
    st.sampled_from((RIGHT_ZERO, Z2, TWO_UNIT, OVERLAPPING_IDS, GAP_MAGMA, "hom: e -> e\nhom: g -> g\n")),
)
# each subcommand with the number of file arguments it reads
_REQUESTS = (("classify", 1), ("classify --json", 1), ("embed", 1), ("embed --pre", 1),
             ("iso", 2), ("check-hom", 3), ("compose", 1))


class TestExitContract:
    # whatever the files hold, a request ends in a verdict (0, 1), bad
    # input (2) or a failed precondition (3), and raises nothing

    @settings(max_examples=200, deadline=None)
    @given(
        request=st.sampled_from(_REQUESTS),
        contents=st.lists(_CONTENTS, min_size=3, max_size=3),
        names=st.lists(st.sampled_from(("e", "g", "x", "p", "q", "f")), min_size=2, max_size=2),
    )
    def test_any_file_contents(self, request, contents, names):
        command, files = request
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, content in enumerate(contents[:files]):
                path = Path(tmp) / f"in{i}"
                if isinstance(content, bytes):
                    path.write_bytes(content)
                else:
                    path.write_text(content, encoding="utf-8")
                paths.append(str(path))
            argv = command.split() + paths + (names if command == "compose" else [])
            assert main(argv) in (0, 1, 2, 3)
