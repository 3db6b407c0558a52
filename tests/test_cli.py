import argparse
import json
import sys
from fractions import Fraction

import pytest

import qzeta.cli
import qzeta.evaluators
import qzeta.expansion
import qzeta.verify
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
    assert parse_signed_string("2^0,-1") == (bar(1),)
    for bad in ("", "2,,1", "2^x", "3,2^-1", "2^0", "x^0", "2^1^2"):
        with pytest.raises(ValueError):
            parse_signed_string(bad)


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


def test_verify_qmzsv_checks_every_q(capsys):
    rc, out, err = run(
        capsys, "verify", "2,1", "--qmzsv", "--q", "1/2,1/3", "--eps", "1e-20", "--format", "json"
    )
    assert rc == 0
    data = json.loads(out)
    assert [rep["q"] for rep in data] == ["1/2", "1/3"]
    assert all(rep["status"] == "numeric-pass" for rep in data)


def test_unreadable_q_and_eps_exit_2_with_a_readable_message(capsys):
    # Fraction("1/0") raises ZeroDivisionError("Fraction(1, 0)"), and a
    # trailing comma in a q list leaves an empty q
    for argv, message in (
        (("verify", "2,1", "--q", "1/0"), "q must be a rational number, got '1/0'"),
        (("lemmas", "--q", "1/0"), "q must be a rational number, got '1/0'"),
        (("eval", "qzeta", "--s", "2", "--q", "x"), "q must be a rational number, got 'x'"),
        (("verify", "2,1", "--q", "1/2,"), "q must be a rational number, got ''"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert message in err and "Fraction(" not in err, argv
    for argv in (
        ("eval", "qzeta", "--s", "2", "--eps", "1/0"),
        ("verify", "2,1", "--qmzsv", "--q", "1/2,1/3", "--eps", "1/0"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "eps must be a rational number, got '1/0'" in err and "Fraction(" not in err, argv


def test_latex_format_is_offered_only_where_it_is_printed(capsys):
    # verify and lemmas print reports as plain text or JSON only
    for argv in (("verify", "2,1"), ("lemmas",)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "latex"])
        assert exc.value.code == 2, argv
        assert "invalid choice: 'latex'" in capsys.readouterr().err, argv


def test_verify_series_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "2,1", "--qmzsv", "--classical"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_series_flags_need_one_composition(capsys, monkeypatch):
    # a family or fuzz target takes neither flag: it is refused before any
    # check runs, not checked by the finite identity instead
    def never(*args, **kwargs):
        raise AssertionError("a check was started")

    for name in (
        "run_family", "sample_compositions", "verify_mhs", "verify_qmzsv", "verify_classical"
    ):
        monkeypatch.setattr(qzeta.cli, name, never)
    for target in ("2c21", "twos-ones", "random"):
        for flag in ("--qmzsv", "--classical"):
            rc, out, err = run(capsys, "verify", target, flag)
            assert rc == 2, (target, flag)
            assert out == "" and f"{flag} checks one composition" in err, (target, flag)


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


def test_verify_random_at_a_weight_below_the_depth_cap(capsys):
    # the corpus draws depths up to 6; at weight 5 and below each one is
    # still a nonempty composition, so every check runs and passes
    for weight in ("5", "1"):
        rc, out, err = run(capsys, "verify", "random", "--max-weight", weight, "--count", "20")
        assert rc == 0 and err == "", (weight, err)
        assert len(out.splitlines()) == 20
    # the message names the one size given
    rc, out, err = run(capsys, "verify", "random", "--max-weight", "0")
    assert rc == 2 and out == "" and err == "error: max_weight must be >= 1, got 0\n"


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
    rc, out, err = run(capsys, "verify", "9,9,9", "--classical", "--terms", "10000")
    assert rc == 0
    assert "numeric-pass" in out
    # 2,1^33 compiles to 33 slots, one more than a q-series check sums: it
    # is refused before either side sums a term
    for name in ("_inner_terms", "_mhs_rows", "_ball_sweep", "_run_column"):
        monkeypatch.setattr(qzeta.evaluators, name, never)
    rc, out, err = run(capsys, "verify", "2,1^33", "--qmzsv")
    assert rc == 2
    assert f"pattern depth 33 exceeds {qzeta.evaluators.MAX_PATTERN_DEPTH} for a q-series" in err


def test_deep_expand_is_refused_after_a_linear_compile(capsys):
    # 3^30000 compiles to 30,001 slots; compose builds them in time linear in
    # the depth, so the expansion's depth cap refuses the pattern at once
    rc, out, err = run(capsys, "expand", "3^30000")
    assert rc == 2
    assert "pattern depth 30001 exceeds 20" in err


def test_huge_upper_limit_fails_fast(capsys, monkeypatch):
    # an upper limit over a cap is refused before any term is summed: the
    # run engine, the harmonic-sum denominators and the kernel rows are
    # patched to raise
    def never(*args):
        raise AssertionError("a sum was started")

    for name in ("_inner_terms", "_ball_sweep", "_run_column"):
        monkeypatch.setattr(qzeta.evaluators, name, never)
    monkeypatch.setattr(qzeta.QContext, "p_lcm", never)
    monkeypatch.setattr(qzeta.QContext, "gauss_row", never)
    pattern_cap = qzeta.evaluators.MAX_PATTERN_LIMIT
    mhs_cap = qzeta.evaluators.MAX_MHS_LIMIT
    kernel_cap = qzeta.verify._MAX_KERNEL_LIMIT
    for argv, message in (
        (("verify", "2,1", "--n-max", "100000"), f"100000 exceeds {pattern_cap}"),
        # over the finite check's cap but not the left side's: the check
        # still stops before the left side sums
        (("verify", "2,1", "--n-max", str(pattern_cap + 1)), f"exceeds {pattern_cap}"),
        (("eval", "mhs", "--s", "2,1", "--n", "100000"), f"100000 exceeds {mhs_cap}"),
        (("eval", "mhs-star", "--s", "2,1", "--n", str(mhs_cap + 1)), f"exceeds {mhs_cap}"),
        (("lemmas", "--n-max", "100000"), f"100000 exceeds {kernel_cap}"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert out == "" and message in err, argv


def test_deep_finite_pattern_fails_fast(capsys, monkeypatch):
    # the finite check builds all m(m+1)/2 folded runs of a depth-m pattern
    # before it sums a term: a pattern deeper than its cap is refused first
    def never(*args):
        raise AssertionError("the run engine was started")

    for name in ("_runs", "_inner_terms", "_ball_sweep", "_run_column"):
        monkeypatch.setattr(qzeta.evaluators, name, never)
    cap = qzeta.evaluators.MAX_PATTERN_DEPTH
    for argv, depth in (
        (("verify", str(cap + 2), "--n-max", "4"), cap + 1),
        (("verify", "960", "--n-max", "4"), 959),
        (("verify", "20000"), 19999),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert out == "" and f"pattern depth {depth} exceeds {cap}" in err, argv
    rc, out, err = run(capsys, "verify", "random", "--max-weight", "100000")
    assert rc == 2 and f"exceeds {cap} for a finite mollified sum" in err
    # the patches are live: a shallow pattern does reach the engine
    with pytest.raises(AssertionError, match="run engine"):
        run(capsys, "verify", "2,1", "--n-max", "3")


def test_series_length_caps_fail_fast(capsys, monkeypatch):
    # the search for a series length K stops at its cap, before any term is
    # summed: a q-series search evaluates one tail bound per step, so a
    # search run on to K ~ 70,000 (eps 1e-30 at q = 999/1000) would take
    # minutes
    calls = []
    search = qzeta.evaluators._truncation

    def counted(tail_bound, *args):
        def once(K):
            calls.append(K)
            return tail_bound(K)

        return search(once, *args)

    def never(*args):
        raise AssertionError("a sum was started")

    monkeypatch.setattr(qzeta.evaluators, "_truncation", counted)
    for name in ("_inner_terms", "_mhs_rows", "_ball_sweep", "_run_column"):
        monkeypatch.setattr(qzeta.evaluators, name, never)
    mhs = (qzeta.evaluators.MAX_MHS_LIMIT, "a harmonic sum")
    frakz = (qzeta.evaluators.MAX_FRAKZ_TERMS, "a mollified series")
    for argv, (cap, what) in (
        (("eval", "qzeta", "--s", "2,1", "--q", "999/1000", "--eps", "1e-30"), mhs),
        (("eval", "frakz", "--s", "2;0;2", "--q", "999/1000", "--eps", "1e-30"), frakz),
        # a q-series check runs the left side's search before either side
        # sums, so its cap fires first, even where the right side's would
        # fire too (eps 1e-100000), or where the right side would sum
        # (K ~ 50 at eps 1e-400, and about a second of summing for 5,5,1 at
        # q = 19/20) while the left side needs K ~ 1330
        (("verify", "2,1", "--qmzsv", "--eps", "1e-100000"), mhs),
        (("verify", "2,1", "--qmzsv", "--eps", "1e-400"), mhs),
        (("verify", "5,5,1", "--qmzsv", "--q", "19/20"), mhs),
    ):
        calls.clear()
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert out == "" and err.strip().endswith(f"series length exceeds {cap} for {what}"), argv
        assert 0 < len(calls) <= cap + 2 and max(calls) <= cap, argv
    # a harmonic sum whose length passes its cap but whose work estimate is
    # over budget, each past a minute of summing, is refused before L_n is
    # built; sums of a minute or less (27 s and 6 s here) start.  A finite
    # check reads both sides' rows in step, so the left side's estimate
    # refuses before the right side sums a term (2^5000 at n_max 20)
    monkeypatch.undo()
    monkeypatch.setattr(qzeta.QContext, "p_lcm", never)
    budget = qzeta.evaluators.MAX_MHS_WORK
    for argv, work in (
        (("eval", "qzeta-star", "--s", "2,1^199"), "3.6e+15"),
        (("eval", "mhs-star", "--s", "1^300", "--n", "300"), "5.5e+16"),
        (("eval", "mhs-star", "--s", "1^1000", "--n", "100"), "1.3e+16"),
        (("verify", "2^5000", "--n-max", "20"), "3e+15"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err.strip().endswith(f"work estimate {work} exceeds {budget:.2g} for a harmonic sum")
    # where both sides would refuse, the right side, read first, names the
    # refusal with its tighter cap
    cap = qzeta.evaluators.MAX_PATTERN_LIMIT
    rc, out, err = run(capsys, "verify", "2^5000", "--n-max", str(cap + 40))
    assert rc == 2 and out == ""
    assert err.strip().endswith(f"upper limit {cap + 40} exceeds {cap} for a finite mollified sum")
    for argv in (
        ("eval", "mhs-star", "--s", "2,1,1,3,1", "--q", "5/8", "--n", "500"),
        ("eval", "mhs-star", "--s", "2^1000", "--n", "20"),
    ):
        with pytest.raises(AssertionError, match="a sum was started"):
            main(list(argv))


def test_string_longer_than_the_series_cap_fails_fast(capsys, monkeypatch):
    # a harmonic string longer than MAX_MHS_LIMIT needs K >= its length, past
    # the cap: the search refuses it before the ball or the exact left side
    # sums a term
    def never(*args):
        raise AssertionError("a sum was started")

    for name in ("_mhs_rows", "_ball_sweep", "_run_column"):
        monkeypatch.setattr(qzeta.evaluators, name, never)
    cap = qzeta.evaluators.MAX_MHS_LIMIT
    rc, out, err = run(capsys, "verify", "2^1100", "--qmzsv")
    assert rc == 2
    assert out == "" and f"series length exceeds {cap} for a harmonic sum" in err
    with pytest.raises(ValueError, match=f"exceeds {cap}"):
        qzeta.evaluators.q_zeta_enclosure(Fraction(1, 2), (2,) * (cap + 1), eps=1)
    with pytest.raises(ValueError, match=f"exceeds {cap}"):
        qzeta.verify.symmetric_pair_check(600, 600, eps=Fraction(1, 10))


def test_deep_qseries_pattern_is_refused_before_the_truncation_searches(capsys, monkeypatch):
    # 3^1100 is both a string longer than MAX_MHS_LIMIT and a pattern of
    # 1,101 slots: a q-series check names the depth, as verify and
    # --classical do, before the left side's search refuses the length
    def never(*args):
        raise AssertionError("a sum was started")

    for name in ("_mhs_rows", "_ball_sweep", "_run_column"):
        monkeypatch.setattr(qzeta.evaluators, name, never)
    cap = qzeta.evaluators.MAX_PATTERN_DEPTH
    rc, out, err = run(capsys, "verify", "3^1100", "--qmzsv")
    assert rc == 2
    assert out == "" and err.strip().endswith(f"pattern depth 1101 exceeds {cap} for a q-series")


def test_huge_repetition_counts_are_refused_before_the_list_is_built(capsys, monkeypatch):
    # 2^(10**20) has no list to build: both parsers count the entries first,
    # so verify, eval and expand exit 2 with a message instead of an
    # OverflowError or a MemoryError, before any pattern is composed
    def never(*args):
        raise AssertionError("a pattern was composed")

    monkeypatch.setattr(qzeta.cli, "compose", never)
    cap = qzeta.rules.MAX_PARSED_ENTRIES
    huge = "2^" + str(10**20)
    for argv in (
        ("verify", huge),
        ("verify", huge, "--qmzsv"),
        ("eval", "qzeta-star", "--s", huge),
        ("eval", "mhs", "--s", f"1,-3^2,-2^{10**20}", "--n", "2"),
        ("verify", f"2^{cap},1"),
        ("expand", f"1,2^{cap}"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert out == "" and f"has more than {cap} entries" in err, argv
    # the bound itself is still taken
    for parse in (qzeta.parse_composition, parse_signed_string):
        assert len(parse(f"3^{cap // 2},1^{cap - cap // 2}")) == cap
        with pytest.raises(ValueError, match=f"more than {cap} entries"):
            parse(f"3^{cap // 2},1^{cap - cap // 2 + 1}")


def test_classical_tolerance_must_be_finite_and_nonnegative(capsys, monkeypatch):
    # an infinite tolerance passes any identity, a negative or NaN one fails
    # every identity: each is refused before a series is summed
    def never(*args, **kwargs):
        raise AssertionError("a classical sum was started")

    monkeypatch.setattr(qzeta.verify, "classical_zeta_many", never)
    for tol in ("inf", "-1", "nan"):
        rc, out, err = run(capsys, "verify", "2,1", "--classical", "--tol", tol)
        assert rc == 2, tol
        assert out == "" and "tol must be finite and >= 0" in err, tol
    # a zero tolerance is a real check and still runs
    monkeypatch.undo()
    rc, out, err = run(capsys, "verify", "2,1", "--classical", "--tol", "0", "--terms", "1000")
    assert rc in (0, 1) and "classical 2,1" in out


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


def test_lemmas_without_checks_exit_2(capsys, monkeypatch):
    # sizes that leave a part with nothing to check would pass it with
    # checks=0; they are refused before any part runs
    def never(*args):
        raise AssertionError("a lemma part was started")

    monkeypatch.setattr(qzeta.QContext, "gauss_row", never)
    for name in ("_inner_terms", "_ball_sweep", "_run_column"):
        monkeypatch.setattr(qzeta.evaluators, name, never)
    for argv, message in (
        (("lemmas", "--n-max", "0", "--q", "1/2"), "n_max = 0 leaves alternating-kernel-sum"),
        (("lemmas", "--n-max", "1"), "n_max = 1 leaves alternating-kernel-sum"),
        (("lemmas", "--samples", "-3"), "samples = -3 leaves head-reduction"),
        (("lemmas", "--samples", "0"), "samples = 0 leaves head-reduction"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert out == "" and message in err, argv


def test_sizes_over_their_caps_exit_2(capsys, monkeypatch):
    # head-reduction samples, a random corpus and a family's weight are
    # refused over their caps before any check starts
    def never(*args, **kwargs):
        raise AssertionError("a check was started")

    monkeypatch.setattr(qzeta.QContext, "gauss_row", never)
    for name in ("_inner_terms", "_ball_sweep", "_run_column"):
        monkeypatch.setattr(qzeta.evaluators, name, never)
    monkeypatch.setattr(qzeta.verify, "_group_seqs", never)
    monkeypatch.setattr(qzeta.verify, "_instances_2c2", never)
    for argv, message in (
        (("lemmas", "--samples", "10001"), "samples 10001 exceeds 10000 for head-reduction"),
        (("verify", "random", "--count", "10001"), "count 10001 exceeds 10000 for a random corpus"),
        (("verify", "2c2", "--max-weight", "25"), "max_weight 25 exceeds 24 for a closed family"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert out == "" and err == f"error: {message}\n", argv


def test_every_suite_parameter_is_a_command_line_flag():
    # lemma_suite and sample_compositions take only what `qzeta lemmas` and
    # `qzeta verify random` set, so no option is reached by tests alone
    import inspect

    (subparsers,) = [
        action for action in qzeta.cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for command, function in (
        ("lemmas", qzeta.verify.lemma_suite),
        ("verify", qzeta.verify.sample_compositions),
    ):
        flags = {action.dest for action in subparsers.choices[command]._actions}
        params = set(inspect.signature(function).parameters)
        # the comma-separated --q list is the suite's q_values
        assert {"q" if p == "q_values" else p for p in params} <= flags, command


def test_vacuous_verify_targets_exit_2(capsys, monkeypatch):
    # a random corpus of no compositions, or a family with no instance at
    # the weight, would pass with checks=0; it is refused before any check
    def never(*args, **kwargs):
        raise AssertionError("a check was started")

    monkeypatch.setattr(qzeta.cli, "verify_mhs", never)
    monkeypatch.setattr(qzeta.cli, "sample_compositions", never)
    monkeypatch.setattr(qzeta.verify, "compose", never)
    monkeypatch.setattr(qzeta.verify, "closed_pattern", never)
    for argv, message in (
        (("verify", "random", "--count", "0"), "--count 0 leaves random with no compositions"),
        (("verify", "random", "--count", "-3"), "--count -3 leaves random with no compositions"),
        (("verify", "twos", "--max-weight", "1"), "family twos has no instance of weight <= 1"),
        (("verify", "2c212", "--max-weight", "5"), "family 2c212 has no instance of weight <= 5"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert out == "" and message in err, argv
    # the least sizes that check something still run
    monkeypatch.undo()
    for argv in (
        ("verify", "random", "--count", "1", "--n-max", "3"),
        ("verify", "twos", "--max-weight", "2", "--n-max", "3"),
        ("verify", "2c212", "--max-weight", "6", "--n-max", "3"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and "checks=0" not in out, argv


def test_huge_classical_truncation_fails_fast(capsys, monkeypatch):
    # a truncation above MAX_CLASSICAL_TERMS, or a series deeper than
    # MAX_PATTERN_DEPTH levels, is refused before the memo is read, so no
    # chunk of the series is ever summed
    def never(*args):
        raise AssertionError("a classical sum was started")

    monkeypatch.setattr(qzeta.evaluators, "_classical_sum", never)
    huge = str(10**12)
    for argv in (
        ("verify", "2,1", "--classical", "--terms", huge),
        ("eval", "zeta", "--s", "2", "--terms", huge),
        ("eval", "zeta-star", "--s", "2,1", "--terms", huge),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert f"K = {huge} exceeds {qzeta.evaluators.MAX_CLASSICAL_TERMS} terms" in err
    cap = qzeta.evaluators.MAX_PATTERN_DEPTH
    for argv, depth in (
        (("verify", "2^3000", "--classical"), 3000),
        (("verify", "2,1^33", "--classical"), 34),
        (("eval", "zeta-star", "--s", "2^20000"), 20000),
        (("eval", "zeta", "--s", f"2,1^{cap}"), cap + 1),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert f"series depth {depth} exceeds {cap}" in err


def test_a_repeated_q_exits_2_before_any_check(capsys, monkeypatch):
    # 2/4 and 0.5 read as 1/2: one q would be checked twice, and with
    # --qmzsv reported twice
    def never(*args, **kwargs):
        raise AssertionError("a check was started")

    for name in ("verify_mhs", "verify_qmzsv", "verify_classical", "run_family"):
        monkeypatch.setattr(qzeta.cli, name, never)
    # `qzeta lemmas` hands its list to lemma_suite, which reads it
    for name in ("_kernel_sum", "_inverse_power", "_head_reduction"):
        monkeypatch.setattr(qzeta.verify, name, never)
    for argv, q in (
        (("verify", "2,1", "--q", "1/2,2/4,0.5", "--n-max", "3"), "1/2"),
        (("verify", "2,1", "--qmzsv", "--q", "1/2,0.5"), "1/2"),
        (("verify", "2,1", "--classical", "--q", "1/3,2/6"), "1/3"),
        (("verify", "2c2", "--q", "1/3,1/3"), "1/3"),
        (("lemmas", "--q", "0.5,1/2"), "1/2"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert out == "" and err == f"error: q_values gives q = {q} more than once\n", argv
    # the patches are live: distinct q reach a check
    with pytest.raises(AssertionError, match="a check was started"):
        main(["verify", "2,1", "--qmzsv", "--q", "1/2,1/3"])
