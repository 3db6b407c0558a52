import json
import sys

import pytest

import qzeta.cli
import qzeta.evaluators
import qzeta.expansion
from qzeta.cli import main, parse_signed_string, parse_triple
from qzeta import THETA, Triple, bar, idx


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parse_signed_string():
    assert parse_signed_string("2,1") == (idx(2), idx(1))
    assert parse_signed_string("-4,3^2") == (bar(4), idx(3), idx(3))
    assert parse_signed_string("-0") == (bar(0),)
    with pytest.raises(ValueError):
        parse_signed_string("2,,1")


def test_parse_triple():
    tri = parse_triple("-4,1;2,0;1,theta")
    assert tri == Triple((bar(4), idx(1)), (2, 0), (1, THETA))
    with pytest.raises(ValueError):
        parse_triple("1;2")


def test_eval_mhs_star_example(capsys):
    rc, out, err = run(capsys, "eval", "mhs-star", "--s", "2^1,3", "--n", "1", "--q", "1/2")
    assert rc == 0
    assert out == "1/4\n"


def test_eval_requires_n_for_finite_sums(capsys):
    rc, out, err = run(capsys, "eval", "mhs", "--s", "2,1")
    assert rc == 2
    assert "--n" in err


def test_eval_latex_format(capsys):
    rc, out, err = run(capsys, "eval", "mhs-star", "--s", "2", "--n", "2", "--q", "1/2")
    assert rc == 0
    plain = out.strip()
    rc, out, err = run(
        capsys, "eval", "mhs-star", "--s", "2", "--n", "2", "--q", "1/2",
        "--format", "latex",
    )
    assert rc == 0
    assert out.strip() == r"\frac{" + plain.replace("/", "}{") + "}"


def test_eval_qzeta_star_huge_exact_value(capsys):
    rc, out, err = run(capsys, "eval", "qzeta-star", "--s", "2,1", "--eps", "1e-12")
    assert rc == 0
    value = out.splitlines()[0]
    num, _, den = value.partition("/")
    assert int(num) > 0 and int(den) > 0


def test_eval_frakz_with_leading_bar(capsys):
    rc, out, err = run(capsys, "eval", "frakz", "--s=-4;2;1", "--eps", "1e-10")
    assert rc == 0
    assert out.splitlines()[0].startswith("-")


def test_eval_zeta_classical(capsys):
    rc, out, err = run(capsys, "eval", "zeta", "--s", "2", "--terms", "20000")
    assert rc == 0
    assert out.splitlines()[0].startswith("1.644")


def test_expand_plain_shows_classical_terms(capsys):
    rc, out, err = run(capsys, "expand", "2,1", "--classical")
    assert rc == 0
    assert "+2*z(3)" in out


def test_expand_json_round_trip(capsys):
    rc, out, err = run(capsys, "expand", "2,1,1,3,1", "--classical", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert json.dumps(data, indent=2, sort_keys=True) == out.strip()
    assert data["composition"] == [2, 1, 1, 3, 1]
    assert data["delta"] == 1
    assert len(data["terms"]) == 8
    assert [t["coefficient"] for t in data["classical"]] == [2, 4, 4, 4, 8, 8, 8, 16]


def test_expand_latex_key_structure(capsys):
    rc, out, err = run(capsys, "expand", "2,1,1,3,1", "--classical", "--format", "latex")
    assert rc == 0
    for piece in (
        r"+2\zeta(8)",
        r"+4\zeta(3,5)",
        r"+4\zeta(4,4)",
        r"+4\zeta(\overline{6},\overline{2})",
        r"+8\zeta(3,1,4)",
        r"+8\zeta(3,\overline{3},\overline{2})",
        r"+8\zeta(4,\overline{2},\overline{2})",
        r"+16\zeta(3,1,\overline{2},\overline{2})",
    ):
        assert piece in out


def test_verify_composition_exact(capsys):
    rc, out, err = run(capsys, "verify", "2,1,2,1,3,1", "--n-max", "8", "--q", "1/2")
    assert rc == 0
    assert "exact-pass" in out


def test_verify_json_report_schema(capsys):
    rc, out, err = run(capsys, "verify", "2,3,1", "--n-max", "6", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["status"] == "exact-pass"
    assert data["n_range"] == [0, 6]
    assert json.dumps(data, indent=2, sort_keys=True) == out.strip()


def test_verify_qmzsv(capsys):
    rc, out, err = run(capsys, "verify", "2,3,2,1", "--qmzsv", "--eps", "1e-20")
    assert rc == 0
    assert "numeric-pass" in out


def test_verify_family(capsys):
    rc, out, err = run(capsys, "verify", "twos-ones", "--max-weight", "6", "--n-max", "6")
    assert rc == 0
    assert "exact-pass" in out


def test_verify_random(capsys):
    rc, out, err = run(
        capsys, "verify", "random", "--count", "5", "--max-weight", "7",
        "--n-max", "6", "--seed", "3",
    )
    assert rc == 0


def test_verify_parse_error_exit_code(capsys):
    rc, out, err = run(capsys, "verify", "2,x")
    assert rc == 2
    assert "cannot parse" in err


def test_huge_expansion_fails_fast(capsys, monkeypatch):
    # 9,9,9 compiles to 22 slots (2**21 resolutions): listing them must be
    # refused before any resolution is built, while the finite and q-series
    # checks, which never expand, still pass
    def never(*args):
        raise AssertionError("expansion was started")

    monkeypatch.setattr(qzeta.expansion, "iter_expansion", never)
    rc, out, err = run(capsys, "expand", "9,9,9")
    assert rc == 2
    assert "pattern depth 22 exceeds 20" in err
    rc, out, err = run(capsys, "verify", "9,9,9", "--n-max", "6")
    assert rc == 0
    assert "exact-pass" in out
    rc, out, err = run(capsys, "verify", "9,9,9", "--qmzsv")
    assert rc == 0
    assert "numeric-pass" in out
    # 2,1^33 compiles to 33 slots, one more than a q-series check sums: it
    # is refused before either side sums a term
    monkeypatch.setattr(qzeta.evaluators, "_inner_terms", never)
    monkeypatch.setattr(qzeta.evaluators, "_mhs_numerators", never)
    rc, out, err = run(capsys, "verify", "2,1^33", "--qmzsv")
    assert rc == 2
    assert f"pattern depth 33 exceeds {qzeta.evaluators.MAX_FRAKZ_DEPTH}" in err


def test_huge_upper_limit_fails_fast(capsys, monkeypatch):
    # an upper limit over a cap is refused before any term is summed: the
    # run engine and the harmonic-sum denominators are patched to raise
    def never(*args):
        raise AssertionError("a sum was started")

    monkeypatch.setattr(qzeta.evaluators, "_inner_terms", never)
    monkeypatch.setattr(qzeta.QContext, "p_lcm", never)
    pattern_cap = qzeta.evaluators.MAX_PATTERN_LIMIT
    mhs_cap = qzeta.evaluators.MAX_MHS_LIMIT
    for argv, message in (
        (("verify", "2,1", "--n-max", "100000"), f"100000 exceeds {pattern_cap}"),
        # over the finite check's cap but not the left side's: the check
        # still stops before the left side sums
        (("verify", "2,1", "--n-max", str(pattern_cap + 1)), f"exceeds {pattern_cap}"),
        (("eval", "mhs", "--s", "2,1", "--n", "100000"), f"100000 exceeds {mhs_cap}"),
        (("eval", "mhs-star", "--s", "2,1", "--n", str(mhs_cap + 1)), f"exceeds {mhs_cap}"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert out == "" and message in err, argv


def test_digit_limit_is_scoped_to_main(capsys, monkeypatch):
    # start from a limit no call of main sets, so a leaked one shows
    outer = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        argv = ("eval", "qzeta-star", "--s", "2,1", "--eps", "1e-25")
        rc, out, err = run(capsys, *argv)
        assert rc == 0
        assert len(out.partition("/")[0]) > 640
        assert sys.get_int_max_str_digits() == 4321
        # an exact value longer than the cap exits 2 instead of printing
        monkeypatch.setattr(qzeta.cli, "MAX_STR_DIGITS", 640)
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == "" and "640" in err
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(outer)


def test_lemmas_subcommand(capsys):
    rc, out, err = run(capsys, "lemmas", "--n-max", "8", "--samples", "3", "--q", "1/2")
    assert rc == 0
    assert out.count("exact-pass") == 5


def test_huge_classical_truncation_fails_fast(capsys, monkeypatch):
    # a truncation above MAX_CLASSICAL_TERMS is refused before the suffix
    # trie is built, so no chunk of the series is ever summed
    def never(*args):
        raise AssertionError("classical sweep was started")

    monkeypatch.setattr(qzeta.evaluators, "_Suffix", never)
    huge = str(10**12)
    for argv in (
        ("verify", "2,1", "--classical", "--terms", huge),
        ("eval", "zeta", "--s", "2", "--terms", huge),
        ("eval", "zeta-star", "--s", "2,1", "--terms", huge),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert f"K = {huge} exceeds {qzeta.evaluators.MAX_CLASSICAL_TERMS} terms" in err
