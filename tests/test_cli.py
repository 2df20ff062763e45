import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from buckdens import cli, kneser


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_members_text(self, capsys):
        code, out, _ = run(capsys, "gen", '{"family":"b_alpha","bits":"1"}', "--horizon", "9")
        assert code == 0
        assert out.split() == ["1", "3", "5", "7", "9"]

    def test_members_json(self, capsys):
        code, out, _ = run(
            capsys, "gen", '{"family":"x0"}', "--horizon", "21", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["members"] == [0, 1, 4, 5, 16, 17, 20, 21]

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "set.json"
        path.write_text('{"progressions": [[1, 3]]}')
        code, out, _ = run(capsys, "gen", str(path), "--horizon", "10")
        assert code == 0
        assert out.split() == ["1", "4", "7", "10"]


class TestDensity:
    def test_exact_rational(self, capsys):
        code, out, _ = run(
            capsys, "density", '{"progressions":[[1,3],[2,6]]}', "--mode", "buck-upper"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "exact"
        assert payload["value"] == {"num": 1, "den": 2}

    def test_chain_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "density",
            '{"family":"x0"}',
            "--mode", "buck-upper",
            "--chain", "powers_of_four",
            "--depth", "3",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,count,ratio_num,ratio_den,kind"
        assert lines[1].startswith("4,2,1,2,")

    def test_windows(self, capsys):
        code, out, _ = run(
            capsys,
            "density",
            '{"progressions":[[1,2]]}',
            "--mode", "windows",
            "--horizon", "10000",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["d_upper"]["value"]["den"] > 0

    def test_buck_lower_of_a_union_is_certified_by_its_profile(self, capsys):
        code, out, _ = run(
            capsys,
            "density",
            '{"family":"union","of":[{"progressions":[[1,4]]},{"family":"x0"}]}',
            "--mode", "buck-lower",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "lower_bound_sequence"
        assert payload["value"] == {"num": 1, "den": 4}

    def test_sampled_buck_upper_names_no_certified_side(self, capsys):
        code, out, _ = run(capsys, "density", '{"family":"p_t","t":1}', "--horizon", "5000")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "sampled" and "certified" not in payload

    def test_modulus_cap_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "density",
            '{"family":"d_k","k_prefix":[1],"rule":"double_gap"}',
            "--chain", "powers_of_two",
            "--depth", "25",
        )
        assert code == 3
        assert "limit" in err.lower()


class TestSumset:
    def test_members_and_profiles(self, capsys):
        code, out, _ = run(
            capsys,
            "sumset",
            '{"family":"b_alpha","bits":"1"}',
            '{"family":"b_alpha","bits":"1"}',
            "--horizon", "12",
            "--mods", "2,4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["members"] == [2, 4, 6, 8, 10, 12]
        assert payload["profiles"][0] == {
            "m": 2, "count": 1, "residues": [0], "kind": "exact-profile",
        }

    @pytest.mark.parametrize("mods", ["0", "2,0"])
    def test_zero_modulus_is_usage_error(self, capsys, mods):
        code, out, err = run(
            capsys, "sumset", '{"family":"weyl","alpha":"1/3"}', '{"family":"x0"}', "--mods", mods
        )
        assert code == 2 and out == ""
        assert "modulus must be positive, got 0" in err

    def test_bad_modulus_names_mods(self, capsys):
        code, out, err = run(
            capsys, "sumset", '{"family":"x0"}', '{"family":"x0"}', "--mods", "4,abc"
        )
        assert code == 2 and out == ""
        assert "--mods" in err and "'abc'" in err

    def test_single_set_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sumset", '{"family":"x0"}', "--horizon", "10")
        assert code == 2 and out == ""
        assert "two or more sets, got 1" in err

    def test_sampled_profiles_enumerate_members_once(self, capsys, enumerated):
        code, out, _ = run(
            capsys,
            "sumset",
            '{"family":"weyl","theta":"sqrt2","alpha":"3/10"}',
            '{"family":"x0"}',
            "--horizon", "20000",
        )
        assert code == 0
        assert [p["kind"] for p in json.loads(out)["profiles"]] == ["sampled"] * 4
        assert sorted(enumerated) == ["sumset", "weyl", "x0"]


class TestAnalyze:
    def test_odds(self, capsys):
        code, out, _ = run(
            capsys, "analyze", '{"family":"b_alpha","bits":"1"}', "--qmax", "16"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == 2 and payload["minimal"] is True

    @pytest.mark.parametrize("q_max", ["0", "1", "-5"])
    def test_q_max_below_two_is_usage_error(self, capsys, q_max):
        code, out, err = run(
            capsys, "analyze", '{"family":"b_alpha","bits":"1"}', f"--qmax={q_max}"
        )
        assert code == 2 and out == ""
        assert "q_max" in err

    def test_ladder_of_twelve_bits_is_pinned(self, capsys):
        # minimal q = 2^12 = q_max: the scan visits the divisors of the period 2^12
        code, out, _ = run(
            capsys, "analyze", '{"family":"b_alpha","bits":"000000000001"}', "--qmax", "4096"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8cf47388e5ba25472885e02fc21025758d8cb0564000415ceb04965a90ba0a83"
        )

    def test_sixteen_bits_reach_q_two_to_the_sixteen(self, capsys):
        code, out, _ = run(
            capsys, "analyze", '{"family":"b_alpha","bits":"0000000000000001"}',
            "--qmax", "70000",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["minimal"] is True and payload["q"] == 65536

    def test_linear_scan_over_the_cap_exits_before_its_first_q(self, capsys, monkeypatch):
        # x0 has no periodic form, so every q in 2..q_max would be visited
        def scanned(desc, q, horizon):
            raise AssertionError(f"the scan visited q = {q}")

        monkeypatch.setattr(kneser, "attained_residues", scanned)
        code, out, err = run(capsys, "analyze", '{"family":"x0"}', "--qmax", "2000000")
        assert code == 3 and out == ""
        assert "q_max 2000000 exceeds cap" in err

    def test_pruned_scan_takes_a_q_max_over_the_cap(self, capsys):
        reports = [
            run(capsys, "analyze", '{"family":"b_alpha","bits":"0011"}', "--qmax", q_max)
            for q_max in ("64", "2000000")
        ]
        assert reports[0] == reports[1]
        assert reports[0][0] == 0 and json.loads(reports[0][1])["minimal"] is True

    def test_classification_matches_classify(self, capsys):
        code, out, _ = run(
            capsys, "analyze", '{"progressions":[[0,10],[1,10],[5,10]]}', "--qmax", "64"
        )
        assert code == 0
        report = json.loads(out)
        profile = report["sumset_profile"]
        _, out, _ = run(
            capsys, "classify", "--mod", str(profile["modulus"]),
            "--elems", *map(str, profile["members"]),
        )
        classified = json.loads(out)
        del classified["modulus"], classified["members"]
        assert report["classification"] == classified
        assert "periodic_part" in classified["qp_witness"]


class TestClassify:
    def test_quasi_periodic_witness(self, capsys):
        code, out, _ = run(capsys, "classify", "--mod", "4", "--elems", "0", "1", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["tag"] == "ap-and-quasi-periodic"
        assert payload["qp_witness"]["subgroup_generator"] == 2
        assert payload["qp_witness"]["shift"] == 1

    def test_duplicated_elements_listed_once(self, capsys):
        _, out, _ = run(capsys, "classify", "--mod", "4", "--elems", "2", "0", "0", "1", "2")
        payload = json.loads(out)
        assert payload["members"] == [0, 1, 2]
        _, once, _ = run(capsys, "classify", "--mod", "4", "--elems", "0", "1", "2")
        assert payload == json.loads(once) and payload["ap_witness"]["length"] == 3

    def test_bad_element(self, capsys):
        code, _, err = run(capsys, "classify", "--mod", "4", "--elems", "5")
        assert code == 2
        assert "error" in err

    def test_non_integer_element_is_named(self, capsys):
        code, out, err = run(capsys, "classify", "--mod", "4", "--elems", "1", "x")
        assert (code, out) == (2, "")
        assert "--elems" in err and "'x'" in err


class TestVerify:
    def test_dk_xi_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "dk-xi")
        assert code == 0
        assert "suite dk-xi: PASS" in out

    def test_json_determinism(self, capsys):
        code1, out1, _ = run(capsys, "verify", "x0", "--format", "json", "--seed", "7")
        code2, out2, _ = run(capsys, "verify", "x0", "--format", "json", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_full_report_is_pinned(self, capsys):
        # sha256 of the full report at a fixed seed: any change to a row,
        # a detail string or the JSON layout of `verify all` shows here
        code, out, _ = run(capsys, "verify", "all", "--format", "json", "--seed", "1729")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6a358b31f6f625fe6a524cf9ae561b657d343f84f3300eaa57bf0b8b7efe10f9"
        )

    def test_unknown_suite_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "everything")
        assert code == 2

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        from buckdens import suites

        broken = suites.SuiteResult("x0", False, ({"check": "c", "passed": False, "detail": ""},))
        monkeypatch.setattr(cli.suite_mod, "run_suite", lambda *a, **k: [broken])
        code, out, _ = run(capsys, "verify", "x0")
        assert code == 1
        assert "FAIL" in out


class TestErrors:
    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "gen", '{"family": "b_alpha", "bits": }')
        assert code == 2
        assert "malformed JSON" in err

    def test_missing_field_named(self, capsys):
        code, _, err = run(capsys, "gen", '{"family": "b_alpha"}')
        assert code == 2
        assert "bits" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", '{"family": "nope"}')
        assert code == 2
        assert "unknown family" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "gen", "no_such_file.json")
        assert code == 2

    def test_inline_json_that_is_not_an_object(self, capsys):
        code, out, err = run(capsys, "gen", "[1,2]")
        assert code == 2 and out == ""
        assert "must be a JSON object" in err

    def test_prefix_outside_threshold(self, capsys):
        code, _, err = run(capsys, "gen", '{"q":2,"T":2,"prefix":[0,8],"tail":[1]}')
        assert code == 2
        assert "prefix" in err


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"q":2,"T":2,"prefix":["a"],"tail":[1]}', "prefix"),
        ('{"family":"d_k","k_prefix":"13"}', "k_prefix"),
        ('{"family":"thin_basis","m":"5"}', "m"),
        ('{"q":2.5,"T":0,"tail":[1]}', "q"),
        ('{"family":"b_alpha","bits":101}', "bits"),
        ('{"T":3}', "q"),
    ],
)
def test_wrong_typed_or_missing_field_is_usage_error(capsys, text, field):
    code, out, err = run(capsys, "gen", text)
    assert code == 2 and out == ""
    assert f"field {field!r}" in err


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"family":"weyl","alpha":"1/0"}', "alpha"),
        ('{"family":"weyl","alpha":Infinity}', "alpha"),
        ('{"family":"weyl","alpha":NaN}', "alpha"),
        ('{"family":"weyl","alpha":"3/10","theta":"1/0"}', "theta"),
        ('{"family":"weyl","alpha":"3/10","theta":1e999}', "theta"),
        ('{"family":"three_density","alpha":"1/2","beta":"1/2","gamma":1e999}', "gamma"),
        ('{"family":"three_density","alpha":"1/2","beta":"x","gamma":"1/2"}', "beta"),
        # malformed before its exponent, which alone would exceed the cap
        ('{"family":"weyl","alpha":"3/10","theta":"x1e-400000"}', "theta"),
    ],
)
def test_a_bad_rational_is_a_usage_error_naming_its_field(capsys, text, field):
    code, out, err = run(capsys, "gen", text, "--horizon", "5")
    assert code == 2 and out == ""
    assert f"field {field!r}" in err and "Traceback" not in err


WEYL = '{"family":"weyl","theta":"sqrt2","alpha":"3/10"}'
# 500 of the 1024 residues, neither an AP nor quasi-periodic
SEEDED_ELEMS = [str(n) for n in random.Random(0).sample(range(1024), 500)]
# 5000 consecutive residues mod 2^14: A + A is an AP of 9999 terms
TAIL_INTERVAL = json.dumps({"q": 16384, "T": 0, "tail": list(range(5000))})


@pytest.mark.parametrize(
    "argv",
    [
        # limits met while reading the input
        ["gen", '{"q":2000000,"T":0,"tail":[1]}'],
        ["gen", '{"family":"basis_chain","moduli":[1025,1025]}'],
        ["classify", "--mod", "2000000", "--elems", "1"],
        # widths over the cap, refused before any mask is built
        ["analyze", '{"family":"basis_chain","moduli":[97,101],"sparsify":true}'],
        ["sumset", '{"progressions":[[3000000,2]]}', '{"progressions":[[1,3]]}'],
        ["sumset", '{"q":1,"T":1000000000000,"prefix":[],"tail":[0]}', '{"progressions":[[0,2]]}'],
        ["sumset", '{"progressions":[[1,997],[5,1009]]}', '{"progressions":[[3,991]]}'],
        ["sumset", WEYL, WEYL, "--horizon", "2000000"],
        ["density", WEYL, "--mode", "windows", "--horizon", "2000000"],
        ["density", '{"family":"d_k","k_prefix":[1,3],"rule":"double_gap"}',
         "--chain", "pow2", "--depth", "25"],
        # the p_t sieve takes a horizon + 1 byte array
        ["gen", '{"family":"p_t","t":2}', "--horizon", "2000000"],
        ["density", '{"family":"p_t","t":2}', "--horizon", "2000000"],
        # the weyl listing checks its horizon before any lane is built
        ["gen", '{"family":"weyl","alpha":"3/10"}', "--horizon", "1000000000000"],
    ],
)
def test_limit_exits_three_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "exceeds cap" in err
    assert time.perf_counter() - start < 5


def run_traced(capsys, *argv):
    """``run``, and the peak of the memory Python allocated meanwhile."""
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (*result, peak)


def test_b_alpha_period_is_refused_before_any_progression(capsys):
    # 10^5 ones would build 10^5 progressions of up to 10^5 bits each
    spec = json.dumps({"family": "b_alpha", "bits": "1" * 10**5})
    code, out, err, peak = run_traced(capsys, "gen", spec, "--horizon", "10")
    assert code == 3 and out == ""
    assert "period of 100001 bits exceeds cap 1048576" in err
    assert peak < 4 << 20
    # trailing zeros do not count: "1" + "0" * 40 has period 2
    spec = json.dumps({"family": "b_alpha", "bits": "1" + "0" * 40})
    code, out, _ = run(capsys, "gen", spec, "--horizon", "9")
    assert code == 0 and out.split() == ["1", "3", "5", "7", "9"]


@pytest.mark.parametrize(
    "spec, named",
    [
        ({"family": "weyl", "theta": "1e-16000", "alpha": "1/2"}, "theta '1e-16000' against alpha"),
        ({"family": "weyl", "theta": "sqrt2", "alpha": "1e-16000"}, "theta 'sqrt2' against alpha"),
        ({"family": "three_density", "alpha": "1/2", "beta": "1/3", "gamma": "1/2",
          "theta": "1e-16000"}, "theta '1e-16000' against beta"),
    ],
    ids=["weyl-theta", "weyl-alpha", "three_density"],
)
def test_weyl_block_is_refused_before_any_lane(capsys, spec, named):
    # P is over 53,000 bits: 4096 values of n of P // 8 + 1 bytes each
    code, out, err, peak = run_traced(capsys, "gen", json.dumps(spec), "--horizon", "100000")
    assert code == 3 and out == ""
    assert re.search(f"weyl block of {named}, width [0-9]+ exceeds cap 1048576", err)
    assert peak < 4 << 20


@pytest.mark.parametrize("field", ["theta", "alpha", "beta", "gamma"])
def test_a_rational_with_a_huge_exponent_is_refused_before_it_is_parsed(capsys, field):
    # Fraction("1e-4000000") alone forms 10^4000000, over 13 million bits
    spec = {"family": "three_density", "alpha": "1/2", "beta": "1/3", "gamma": "1/2"}
    spec[field] = "1e-4000000"
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", json.dumps(spec), "--horizon", "10")
    assert time.perf_counter() - start < 0.5
    assert code == 3 and out == ""
    assert err == (
        f"limit exceeded: field {field!r}: decimal exponent 4000000 exceeds cap 315652, "
        "past which 10^|e| is wider than 1048576 bits\n"
    )


@pytest.mark.parametrize(
    "moduli, bits", [([1048576], 1048596), ([524288, 2], 524196)], ids=["one", "two"]
)
def test_a_sparsified_basis_chain_is_refused_before_any_component(capsys, moduli, bits):
    # every displaced element a + 2^a * cofactor * m would be formed first
    spec = json.dumps({"family": "basis_chain", "moduli": moduli, "sparsify": True})
    code, out, err, peak = run_traced(capsys, "gen", spec)
    assert code == 3 and out == ""
    assert f"threshold of {bits} bits exceeds cap 1048576" in err
    assert peak < 4 << 20


WEYL_LEAF = {"family": "weyl", "theta": "sqrt2", "alpha": "1/2"}
THIRDS = {"progressions": [[1, 3]]}


def nested_unions(depth: int, leaf: dict) -> str:
    for _ in range(depth):
        leaf = {"family": "union", "of": [leaf, THIRDS]}
    return json.dumps(leaf)


def test_a_deeply_nested_description_exits_three(capsys):
    # json.loads recurses once per level
    spec = '{"family":"union","of":[' * 600 + json.dumps(THIRDS) + "]}" * 600
    code, out, err = run(capsys, "gen", spec, "--horizon", "100")
    assert code == 3 and out == ""
    assert "Traceback" not in err
    limit = sys.getrecursionlimit()
    assert err == f"limit exceeded: set description nested past the recursion limit {limit}\n"


@pytest.mark.parametrize("command", ["gen", "density"])
def test_a_nested_description_under_the_limit_runs(capsys, command):
    # a nested union is spliced flat as it is built: 250 levels are 251 parts
    flat = json.dumps({"family": "union", "of": [WEYL_LEAF] + [THIRDS] * 250})
    nested = run(capsys, command, nested_unions(250, WEYL_LEAF), "--horizon", "100")
    assert nested[0] == 0 and nested[1]
    assert run(capsys, command, flat, "--horizon", "100") == nested


def test_weyl_block_of_a_long_theta_builds_under_the_cap(capsys):
    # P is about 3340: 256 values of n (horizon 255) fit the cap, 512 (horizon 256) do not
    spec = '{"family":"weyl","theta":"1e-1000","alpha":"1/2"}'
    code, out, _ = run(capsys, "gen", spec, "--horizon", "255")
    assert code == 0 and out.split() == [str(n) for n in range(256)]
    code, _, err = run(capsys, "gen", spec, "--horizon", "256")
    assert code == 3 and "weyl block of theta '1e-1000' against alpha, width" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", '{"family":"p_t","t":2}', "--horizon", "2000000"],
         "p_t horizon 2000000 exceeds cap 1048575"),
        (["sumset", WEYL, WEYL, "--horizon", "1048576"],
         "sumset horizon 1048576 exceeds cap 1048575"),
        (["density", WEYL, "--mode", "windows", "--horizon", "2000000"],
         "window horizon 2000000 exceeds cap 1048575"),
        (["gen", WEYL, "--horizon", "1048576"], "weyl horizon 1048576 exceeds cap 1048575"),
        # the digit mask of a ruled d_k set spans 2^e > horizon bits
        (["gen", '{"family":"x0"}', "--horizon", "1048576"], "x0 horizon 1048576 exceeds cap 1048575"),
        (["gen", '{"family":"d_k","k_prefix":[1],"rule":"double_gap"}', "--horizon", "10000000000"],
         "d_k horizon 10000000000 exceeds cap 1048575"),
        # an infinite periodic set checks its horizon before the tail is tiled
        (["gen", '{"progressions":[[1,2]]}', "--horizon", "2000000"],
         "periodic horizon 2000000 exceeds cap 1048575"),
        # the JSON report lists the members of an exact sum; its csv rows need none
        (["sumset", '{"progressions":[[1,4]]}', '{"progressions":[[1,3]]}', "--horizon", "2000000"],
         "periodic horizon 2000000 exceeds cap 1048575"),
        (["gen", '{"family":"three_density","alpha":"1/2","beta":"1/2","gamma":"1/2"}',
          "--horizon", "1000000000"], "three_density horizon 1000000000 exceeds cap 1048575"),
    ],
)
def test_horizon_limit_names_the_horizon_given(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", '{"family":"thin_basis","m":4000000}'], "thin_basis m 4000000 exceeds cap 1048576"),
        (["gen", '{"family":"basis_chain","moduli":[1048576,1048576]}'],
         "basis_chain modulus product 1099511627776 exceeds cap 1048576"),
    ],
)
def test_basis_width_is_named_in_the_limit_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["analyze", '{"family":"b_alpha","bits":"0011"}'],
         "5847cb3f4b9767cc202fe53bb319b2aa6596c111907d31281f7103ab643606c4"),
        (["analyze", '{"family":"x0"}', "--qmax", "32"],
         "864446ec1879cde178d0a327f54d353fec28ed9fbef7c86a23d925e6c40f2134"),
        (["density", WEYL, "--mode", "windows", "--horizon", "100000"],
         "48e1de080a164e985f367160408e17ebbaf07584f3919288ff5d9f7d741e935a"),
        # its details hold commas, so this pins the CSV quoting
        (["verify", "kemperman-ap", "--format", "csv"],
         "b575ee73a5dfb4bb5601f605bbf63df03881f372392f49598586f3053aa3899f"),
        # each detector tests one mask per candidate, not every start or shift
        (["classify", "--mod", "1024", "--elems", *SEEDED_ELEMS],
         "1e667d53f94ace67c0076099c1972531252d82109c49daae390c8cf0871dc938"),
        (["analyze", TAIL_INTERVAL, "--qmax", "16384"],
         "dc1e6c1c174dd230e3f5eb0b21a02c9460abffc8a2073327f3ad685aa0358531"),
        # the sampled self-sum of weyl, as printed at 121af0b by one shift per member
        (["sumset", WEYL, WEYL, "--horizon", "20000"],
         "cdff87c9ee4ec4d05ef53f88946a946145c8dab5dc1f5b3a39059c248a75e1d6"),
        (["analyze", WEYL, "--horizon", "20000"],
         "6810a91b344d4d3482af2a0e3b32c01be3c3f6458bd0a9b1f82851621ac3b14f"),
        # three reports read from modular profiles: a sum's, a union's, a ruled d_k's
        (["sumset", '{"family":"x0"}', '{"family":"x0"}',
          "--mods", "4,16,64,256,1024,4096,16384,65536", "--horizon", "100000"],
         "05ef653f78c9c9e2a351a89d431e7b987a47a26a99dbc268b69e0d62ea18e488"),
        (["density", '{"family":"union","of":[{"progressions":[[1,4]]},{"family":"x0"}]}',
          "--mode", "buck-lower"],
         "917b8a40a6c5883270baf6dcf9e9a10b23267510a7cdae9304c4cdbee5582783"),
        (["density", '{"family":"d_k","k_prefix":[1,3],"rule":"double_gap"}',
          "--chain", "pow2", "--depth", "12"],
         "94a9595d7fb00789fea67ca0458b89b028de40bda9311508b5f3a9fa33362f05"),
        # three reports where some part or modulus has no profile: exact rows at 2, 4, 8
        # and 16, sampled at 3, 6 and 12; a ruled d_k off the powers of two; a union
        # with a weyl part
        (["sumset", '{"family":"x0"}', '{"family":"x0"}', "--mods", "2,3,4,6,8,12,16",
          "--horizon", "5000"],
         "20797d9b0dae6a6dcf9a3defbb6b1ac88345c6889a11cd921944130c22ea896e"),
        (["density", '{"family":"d_k","k_prefix":[1,3],"rule":"double_gap"}',
          "--chain", "factorial", "--depth", "8", "--mode", "buck-lower"],
         "5d8ffb57811588bea51c77b273a486642aac14ec310b3fc5e31829d76181d5db"),
        (["density", '{"family":"union","of":[{"progressions":[[1,4]]},'
          '{"family":"weyl","theta":"sqrt2","alpha":"3/10"}]}', "--mode", "buck-upper"],
         "d5eca9a9ad1c878cfe8c618a138f4f0b4579a2b52e312947176a6fae15c524f7"),
    ],
)
def test_report_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sampled_sum_over_cap_exits_before_any_summand_is_listed(capsys, enumerated):
    code, out, err = run(capsys, "analyze", WEYL, "--horizon", "2000000")
    assert code == 3 and out == ""
    assert "exceeds cap" in err
    assert enumerated == ["sumset"]


def test_exact_sum_csv_lists_no_members_at_any_horizon(capsys):
    sets = ('{"progressions":[[1,2]]}', '{"progressions":[[0,3]]}')
    code, small, _ = run(capsys, "sumset", *sets, "--horizon", "1000", "--format", "csv")
    assert code == 0
    code, large, _ = run(capsys, "sumset", *sets, "--horizon", "2000000", "--format", "csv")
    assert code == 0 and large == small
    # a sampled sum's residues are read off its members, so its horizon is checked
    code, out, err = run(capsys, "sumset", WEYL, WEYL, "--horizon", "2000000", "--format", "csv")
    assert code == 3 and out == ""
    assert "sumset horizon 2000000 exceeds cap 1048575" in err


def test_exact_sum_profiles_take_a_horizon_over_the_cap(capsys):
    # b_alpha + x0 has exact profiles mod 2^k, so no sampled sum is listed
    code, out, _ = run(
        capsys, "analyze", '{"family":"b_alpha","bits":"011"}', '{"family":"x0"}',
        "--horizon", "1100000",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4d77a4c6d1fce583b3ef4100cea0208bd5ab55a5059405682de38d6621cc25f9"
    )


@pytest.mark.parametrize("depth", ["100000", "2000"])
def test_a_chain_past_the_cap_exits_three_naming_the_depth(capsys, depth):
    # checked by bit length before the chain is built: no 2-second build, no
    # 603-digit modulus, no decimal past str()'s 4300-digit limit
    start = time.perf_counter()
    code, out, err = run(capsys, "density", '{"family":"x0"}', "--depth", depth)
    assert code == 3 and out == ""
    assert err == (
        f"limit exceeded: depth {depth} exceeds cap 1048576: "
        "the powers_of_two chain's modulus at depth 21 has 22 bits\n"
    )
    assert max(map(len, re.findall(r"\d+", err))) <= 7
    assert time.perf_counter() - start < 1


def test_an_exact_form_reads_no_chain_at_any_depth(capsys):
    code, out, _ = run(capsys, "density", ODDS, "--depth", "2000")
    assert code == 0
    assert json.loads(out)["value"] == {"num": 1, "den": 2}


@pytest.mark.parametrize("mode", ["buck-upper", "buck-lower"])
@pytest.mark.parametrize("depth", ["1000", "30000"])
def test_an_exact_form_builds_no_chain(capsys, mode, depth):
    # a primorial chain to depth 1000 alone takes longer than the bound
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "density", '{"progressions":[[1,2]]}', "--mode", mode,
        "--chain", "primorial", "--depth", depth,
    )
    assert code == 0
    assert json.loads(out) == {"kind": "exact", "sequence": [], "value": {"num": 1, "den": 2}}
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [["--depth", "0"], ["--chain", "fibonacci"]])
@pytest.mark.parametrize("desc", ['{"progressions":[[1,2]]}', '{"family":"x0"}'])
def test_depth_zero_and_unknown_chains_are_usage_errors_with_or_without_an_exact_form(
    capsys, desc, argv
):
    code, out, _ = run(capsys, "density", desc, *argv)
    assert code == 2 and out == ""


def indented(out: str) -> str:
    """The report as ``json.dumps(indent=2, sort_keys=True)`` writes it."""
    return json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv, count",
    [
        (["gen", '{"family":"p_t","t":0}', "--horizon", "50", "--format", "json"], 0),
        (["gen", '{"family":"x0"}', "--horizon", "0", "--format", "json"], 1),
        (["gen", WEYL, "--horizon", "20000", "--format", "json"], 6002),
        # the nested residue lists: empty, one residue, many
        (["sumset", '{"family":"p_t","t":0}', '{"family":"x0"}', "--horizon", "50"], 0),
        (["sumset", '{"family":"x0"}', '{"family":"x0"}', "--horizon", "0", "--mods", "1,2"], 1),
        (["sumset", WEYL, '{"family":"x0"}', "--horizon", "20000", "--mods", "2,7,64"], 19998),
    ],
)
def test_member_lists_are_written_as_the_indenting_encoder_writes_them(capsys, argv, count):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == indented(out)
    assert len(json.loads(out)["members"]) == count


@pytest.mark.parametrize(
    "obj",
    [
        {"members": [], "profiles": [{"residues": [0, 1], "m": 2}, {"residues": [], "m": 4}]},
        {"members": [1, -3, 10**30]},
        {"members": [1, True], "residues": [True, 1]},  # bools are written as true / false
        {"members": [1, 2.5], "residues": [1, "2"]},
        {"members": [[1, 2], [3]], "residues": [1, [2]]},
        {"members": [1], "family": "\x000"},  # a string that reads as a placeholder
        {"members": [1], "\x000": [2]},
        {"residues": (1, 2), "members": {"members": [3, 4]}},
    ],
)
def test_held_int_lists_leave_the_report_byte_identical(obj):
    expect = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert cli._json_dumps(obj, ("members", "residues")) == expect


@pytest.mark.parametrize(
    "set_, horizon",
    [('{"family":"p_t","t":0}', "50"), ('{"family":"x0"}', "0"), (WEYL, "20000")],
)
def test_text_members_one_per_line(capsys, set_, horizon):
    code, out, _ = run(capsys, "gen", set_, "--horizon", horizon, "--format", "json")
    members = json.loads(out)["members"]
    code, out, _ = run(capsys, "gen", set_, "--horizon", horizon)
    assert code == 0
    assert out == "\n".join(map(str, members)) + "\n"


@pytest.mark.parametrize("horizon", ["1000000", "1048575"])
def test_windows_peak_below_26_mib(horizon):
    # a fresh process, since ru_maxrss of RUSAGE_CHILDREN is the largest
    # child's; importing buckdens alone peaks near 18 MiB, so the run may
    # add 8 MiB, about eight bytes per number below the horizon
    script = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'buckdens.cli', 'density', sys.argv[1],\n"
        "                '--mode', 'windows', '--horizon', sys.argv[2]], stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", script, WEYL, horizon], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 26 * 1024  # KiB


def test_sparse_members_take_a_huge_horizon(capsys):
    # hook has 17 members up to 10^15; a mask as wide as the largest would need 2^49 bits
    code, out, _ = run(capsys, "density", '{"family":"hook"}', "--horizon", str(10**15))
    assert code == 0
    assert json.loads(out)["kind"] == "sampled"


ODDS = '{"progressions":[[1,2]]}'


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", ODDS, "--format", "csv"],
        ["density", ODDS, "--format", "text"],
        ["density", ODDS, "--mode", "windows", "--format", "csv"],
        ["sumset", ODDS, ODDS, "--format", "text"],
        *(["analyze", ODDS, "--format", f] for f in ("text", "json", "csv")),
        *(["classify", "--mod", "4", "--elems", "1", "--format", f] for f in ("text", "json", "csv")),
    ],
)
def test_unimplemented_format_is_usage_error(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", '{"family":"x0"}', "--horizon", "-5", "--format", "json"],
        ["density", '{"family":"x0"}', "--horizon", "-1"],
        ["density", WEYL, "--mode", "windows", "--horizon", "-1"],
        ["sumset", '{"family":"x0"}', '{"family":"x0"}', "--horizon", "-2"],
        ["analyze", WEYL, "--horizon", "-1", "--qmax", "8"],
    ],
)
def test_negative_horizon_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "argument --horizon: must be at least 0, got -" in err


def test_horizon_zero_lists_up_to_zero(capsys):
    code, out, _ = run(capsys, "gen", '{"family":"x0"}', "--horizon", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"family": "x0", "horizon": 0, "members": [0]}


def test_non_integer_horizon_is_usage_error(capsys):
    code, out, err = run(capsys, "gen", '{"family":"x0"}', "--horizon", "ten")
    assert code == 2 and out == ""
    assert "argument --horizon: invalid int value: 'ten'" in err


def test_one_parser_serves_every_call(capsys, monkeypatch):
    argvs = [
        ["gen", WEYL, "--horizon", "40"],
        ["density", ODDS, "--format", "csv"],
        ["gen", WEYL, "--horizon"],  # usage error: exit 2
        ["classify", "--mod", "12", "--elems", "0", "4", "8"],
        ["verify", "nope"],
        ["analyze", ODDS, "--qmax", "8"],
        [],
        ["sumset", ODDS, ODDS, "--mods", "2,3"],
    ]
    built = []
    build = cli._build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counted)
    cli._parser.cache_clear()
    shared = [run(capsys, *argv) for argv in argvs]
    assert len(built) == 1
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert len(built) == 1 + len(argvs)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 0, 2, 0]


class TestOutputFile:
    def test_write_to_path(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "density", '{"progressions":[[1,2]]}',
            "--format", "json",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["value"] == {"num": 1, "den": 2}
        assert target.read_bytes().endswith(b"\n")
        assert b"\r" not in target.read_bytes()

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    @pytest.mark.parametrize(
        "argv",
        [["gen", '{"family":"x0"}', "--horizon", "5"], ["verify", "x0", "--format", "json"]],
    )
    def test_unwritable_path_is_a_usage_error_before_the_report(
        self, capsys, tmp_path, monkeypatch, argv, where
    ):
        target = tmp_path / "nonexistent" / "x" if where == "missing directory" else tmp_path
        monkeypatch.setattr(cli, "_load_set", lambda arg: pytest.fail("set read"))
        monkeypatch.setattr(cli.suite_mod, "run_suite", lambda *a, **k: pytest.fail("suite run"))
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: --output {str(target)!r}") and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_a_failed_write_is_a_usage_error_naming_the_path(self, tmp_path):
        # a path that passes the early check but cannot be opened for writing
        target = str(tmp_path / "a" / "b")
        with pytest.raises(cli.UsageError, match=re.escape(f"--output {target!r}: cannot write")):
            cli._emit("text", target)


def plain_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


GOLDEN = '{"family":"weyl","theta":"golden","alpha":"2/7"}'
EMPTY_PERIODIC = '{"q":5,"T":0,"prefix":[],"tail":[]}'
HOOK = '{"family":"hook"}'


@pytest.mark.parametrize(
    "set_, horizon",
    [
        (GOLDEN, 10**6),
        ('{"family":"x0"}', 10**5),
        ('{"family":"p_t","t":1}', 30000),
        (HOOK, 10**15),  # listed, not masked
        ('{"family":"union","of":[{"family":"hook"},{"family":"x0"}]}', 5000),
        (EMPTY_PERIODIC, 50),
        ('{"family":"x0"}', 0),
        (HOOK, 1),  # an empty list
    ],
)
def test_gen_is_byte_identical_to_plain_json(capsys, tmp_path, set_, horizon):
    desc = cli._load_set(set_)
    members = desc.members(horizon)
    expect = plain_json({"family": desc.family, "horizon": horizon, "members": members})
    argv = ["gen", set_, "--horizon", str(horizon)]
    assert run(capsys, *argv, "--format", "json") == (0, expect, "")
    assert run(capsys, *argv) == (0, "".join(f"{n}\n" for n in members) or "\n", "")
    target = tmp_path / "members.json"
    assert run(capsys, *argv, "--format", "json", "--output", str(target)) == (0, "", "")
    assert target.read_text() == expect


@pytest.mark.parametrize(
    "sets, horizon, mods",
    [
        ([WEYL, '{"family":"x0"}'], 20000, [2, 7, 64, 1000]),
        (['{"family":"x0"}', '{"family":"x0"}'], 3000, [4, 16, 64, 4096]),
        (['{"family":"p_t","t":1}', '{"family":"x0"}'], 2000, [3, 6, 1024]),
        ([HOOK, '{"family":"x0"}'], 1000, [3, 5]),
        ([EMPTY_PERIODIC, '{"family":"x0"}'], 40, [1, 2]),
        (['{"family":"x0"}', '{"family":"x0"}'], 0, [1, 2]),
    ],
)
def test_sumset_is_byte_identical_to_plain_json_and_csv(capsys, sets, horizon, mods):
    from buckdens import density
    from buckdens.generators import sumset_description

    total = sumset_description([cli._load_set(s) for s in sets])
    table = []
    for m in mods:
        attained, exact = density.attained_residues(total, m, horizon)
        table.append({"m": m, "count": attained.cardinality, "residues": list(attained),
                      "kind": "exact-profile" if exact else "sampled"})
    expect = plain_json({"members": total.members(horizon), "profiles": table, "horizon": horizon})
    argv = ["sumset", *sets, "--horizon", str(horizon), "--mods", ",".join(map(str, mods))]
    assert run(capsys, *argv) == (0, expect, "")
    rows = [f"{t['m']},{t['count']},{t['kind']},{' '.join(map(str, t['residues']))}\n" for t in table]
    assert run(capsys, *argv, "--format", "csv") == (0, "m,count,kind,residues\n" + "".join(rows), "")


@pytest.mark.parametrize(
    "m, elems",
    [
        (4, [2, 0, 0, 1, 2]),
        (12, [0, 4, 8]),
        (1024, list(map(int, SEEDED_ELEMS))),
        (4096, [x for x in range(4096) if x % 4 < 2] + [2]),  # quasi-periodic, long lists
        (1 << 20, list(range(5, 1 << 20, 8))),  # 131072 members, past the numeral crossover
    ],
)
def test_classify_is_byte_identical_to_plain_json(capsys, m, elems):
    from buckdens.zmod import ResidueSet, classify_structure

    cls = classify_structure(ResidueSet.of(m, elems)).to_json_dict()
    expect = plain_json({"modulus": m, "members": sorted(set(elems)), **cls})
    assert run(capsys, "classify", "--mod", str(m), "--elems", *map(str, elems)) == (0, expect, "")


@pytest.mark.parametrize("colliding", ["\x000", "\x0012"])
def test_a_report_string_read_as_a_placeholder_falls_back_with_held_masks(
    capsys, monkeypatch, colliding
):
    import dataclasses

    load = cli._load_set
    monkeypatch.setattr(cli, "_load_set", lambda arg: dataclasses.replace(load(arg), family=colliding))
    members = load(WEYL).members(3000)
    expect = plain_json({"family": colliding, "horizon": 3000, "members": members})
    assert run(capsys, "gen", WEYL, "--horizon", "3000", "--format", "json") == (0, expect, "")
    obj = {"members": 0b1011, "kind": colliding, "profiles": [{"residues": 0b110}, {"residues": 0}]}
    plain = {"members": [0, 1, 3], "kind": colliding, "profiles": [{"residues": [1, 2]}, {"residues": []}]}
    assert cli._json_dumps(obj, ("members", "residues")) == plain_json(plain)
    obj["kind"] = plain["kind"] = "sampled"  # no collision: the held masks are written as text
    assert cli._json_dumps(obj, ("members", "residues")) == plain_json(plain)


@pytest.mark.parametrize("set_", [GOLDEN, '{"family":"x0"}', '{"family":"p_t","t":2}', ODDS])
def test_gen_reads_no_positions_off_a_mask(capsys, monkeypatch, set_):
    from buckdens import generators, periodic, zmod

    expect = [run(capsys, "gen", set_, "--horizon", "20000", *f) for f in ([], ["--format", "json"])]

    def refused(bits):
        raise AssertionError("bit_positions called")

    for module in (zmod, generators, periodic, cli):
        monkeypatch.setattr(module, "bit_positions", refused)
    got = [run(capsys, "gen", set_, "--horizon", "20000", *f) for f in ([], ["--format", "json"])]
    assert got == expect and expect[0][0] == 0
