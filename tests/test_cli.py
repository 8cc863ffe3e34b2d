"""Driver behavior: artifacts, determinism, exit codes, report structure."""

import csv
import hashlib
import json
import math
import time
import warnings

import pytest

from limitlab import verify
from limitlab.cli import main
from limitlab.verify import CHECKS, Caps

VERIFY_ALL_IDS = [
    "fejer.coefficients", "fejer.cesaro_mean", "fejer.lower_bound",
    "fejer.lp_equivalence", "poisson.positivity", "poisson.sup_bound",
    "poisson.unit_mass", "dirichlet.partial_sum_convolution",
    "pmt.weak_type", "poisson.window_floor", "fourier.spectrum",
    "fourier.stage_floor", "fourier.summability", "integral_test.growth",
    "integral_test.holder_majorant", "step.mass_bound",
    "step.increment_bound", "step.limit_mass", "step.radial_floor",
    "ml.contraction", "lemma_simple.measure", "lemma_simple.stability",
    "lemma_poisson.measure", "chain.schnorr_convergence",
    "tents.l1_bound", "tents.flip_flop", "tents.poisson_decay",
]

FAST_VERIFY = ["--kernel-n-max", "6", "--lower-bound-n-max", "8",
               "--grid-points", "64", "--n-max", "1", "--m-max", "4",
               "--s-max", "5", "--k-max", "1", "--samples", "10",
               "--weak-type-count", "1"]

# the verify-all benchmark's caps (VERIFY_CAPS of perfbench/workloads.py)
VERIFY_CAPS = ["--n-max", "1", "--m-max", "10", "--s-max", "11", "--k-max", "1",
               "--weak-type-count", "1", "--kernel-n-max", "16",
               "--lower-bound-n-max", "50", "--grid-points", "200",
               "--samples", "50"]


def test_fourier_trace_artifacts_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["fourier-trace", "--point", "0/1", "--n-max", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("fourier_construction.json", "fourier_trace.csv",
                 "verification_report.json"):
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "fourier_trace.csv").read_text().splitlines()[0]
    assert header == "cutoff,value_re,value_im,jump"


def test_poisson_trace_schnorr(tmp_path):
    out = tmp_path / "o"
    assert main(["poisson-trace", "--point", "0/1", "--m-max", "12",
                 "--out", str(out)]) == 0
    header = (out / "poisson_trace.csv").read_text().splitlines()[0]
    assert header == "y,value,lower_bound,bound_active"
    report = json.loads((out / "verification_report.json").read_text())
    assert report["overall"] == "pass"
    assert any(e["id"] == "step.radial_floor" for e in report["bounds"])


def test_poisson_trace_ml(tmp_path):
    out = tmp_path / "o"
    assert main(["poisson-trace", "--construction", "ml-poisson",
                 "--point", "0/1", "--s-max", "9", "--out", str(out)]) == 0
    stages = (out / "tent_stages.csv").read_text().splitlines()
    assert stages[0] == "s,l1,l1_bound,value_at_point"
    # norms column carries exact p/q values
    assert stages[2].split(",")[1] == "3/32"


def test_build_writes_dump_without_trace(tmp_path):
    out = tmp_path / "o"
    assert main(["build", "--construction", "schnorr-poisson", "--m-max", "4",
                 "--out", str(out)]) == 0
    assert (out / "step_construction.json").exists()
    assert not (out / "poisson_trace.csv").exists()


# sha256 of every artifact of the two largest baseline builds, and of four builds
# at a point with an odd denominator, where the exact merges meet breakpoints
# and values whose common denominator is no power of two: a faster exact
# merge or stage construction must leave every byte of them in place
PINNED_BUILDS = {
    ("schnorr-poisson", "--m-max", "60"): {
        "step_construction.json":
            "7751092c94f26bdd7168ea51daafb9162dd13e961d774551e3014c0f3ae77b55",
        "verification_report.json":
            "d8787ea34a6462cd1f3a795d23300eb5257acb16b9a437b5755722cb05ff2e7f",
    },
    ("ml-poisson", "--s-max", "81"): {
        "tent_construction.json":
            "bb1b739cc6aa740ab5a77e5990906ab1e9b7f190db43d39f7634fd6efdd20907",
        "tent_stages.csv":
            "09f438dcda23896f0b4755b7254ebb13852e29c9fd6e254cdf298104090c55e2",
        "verification_report.json":
            "403946a32c95b5adaa69143c73a8d8744c4236dd04b7c269008776c61f8e1893",
    },
    ("schnorr-poisson", "--m-max", "32", "--point=12345/65537"): {
        "step_construction.json":
            "ff1c10907c77bdf921e352edd65634ec2161b8c587534f556a41a05bfe9cfc49",
        "verification_report.json":
            "0aecdc06d25f16cd7192c5a6a948681c850048ae0eed8fb7f960dc1d0583c41e",
    },
    ("ml-poisson", "--s-max", "37", "--point=12345/65537"): {
        "tent_construction.json":
            "4aac317300de62626bb2725aba7c8cc8d75caa0fe3702568c71933ba6fea7d39",
        "tent_stages.csv":
            "74027223e3bd37e6c329badd08e24b26df3f902dd33a38544a3d6977631c7501",
        "verification_report.json":
            "6bb26a18f1f533c7ed781245b09d549e23a63b1730f5ce2f0e84fdbae32afa09",
    },
    ("schnorr-poisson", "--m-max", "120", "--point=12345/65537"): {
        "step_construction.json":
            "37d5cec47acc5ef0d72ac8b3b3293e780a54d8f5e1bc2de8f808323eea3860d2",
        "verification_report.json":
            "d80f35b2597c8fafb1bb8ba5249b2147849f7dd60de2616c4e7f798a5d2fd6a3",
    },
    ("ml-poisson", "--s-max", "161", "--point=12345/65537"): {
        "tent_construction.json":
            "5cc5e40dc7110e78a2a4a05d6632e017e6b0d84637897e1d87f059306f8231c0",
        "tent_stages.csv":
            "23720e489d2265eb93327cfa941071c72cd14ddcdf7e7100307dec2358cfef1b",
        "verification_report.json":
            "bcc522103c0566a10da7f4ceda04d388a2c101736d9d1c6ecb7958fd42b8bd8b",
    },
}


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("args", sorted(PINNED_BUILDS), ids="-".join)
def test_large_build_artifacts_are_pinned(tmp_path, args):
    out = tmp_path / "o"
    assert main(["build", "--construction", *args, "--out", str(out)]) == 0
    assert _digests(out) == PINNED_BUILDS[args]


# The Fourier artifacts at p = 2, 1.5 and 3: at p = 2 every stage's energy
# comes from the pairwise energy kernel (FejerSum.energy), and at every p
# fourier.spectrum sums each stage's spectrum frequency by frequency at the
# point, so a change that moves one bit of a stage norm, of that sum or of
# its budget shows here.
PINNED_FOURIER = {
    ("fourier-trace", "--n-max", "5", "--point=41/64"): {
        "fourier_construction.json":
            "d3f02cc6729242293a214ec05097412bcb744f6349c30261bd105520270e287a",
        "fourier_trace.csv":
            "e69356974213c2e008642a3586cfb962b8cb0abed6a74cd80a6ab3132220ee09",
        "verification_report.json":
            "cc4a599ce716bd609f5e7f19880650792ec685e2c05eb43061fc246c4922f1a0",
    },
    ("fourier-trace", "--p", "1.5", "--n-max", "2", "--point=41/64"): {
        "fourier_construction.json":
            "f37de466612d46778214e1df3a34f683aca239cda68b6f8e80ae93e58f152c47",
        "fourier_trace.csv":
            "48be0034afbade84389160662f57a08eac70ba23924b8237f6055744fbd252de",
        "verification_report.json":
            "cc50c3ae11865160af1df366e756b3ed5d59fd416d39482ec5fcf46736dacbd6",
    },
    ("fourier-trace", "--p", "3", "--n-max", "1"): {
        "fourier_construction.json":
            "21da591c5b77cf08a7ad85348ece42c4ae17627bd4cf74af28485a13ba306024",
        "fourier_trace.csv":
            "a3dc74663d7c7eefa92a0bb4f805f8320bc932c9b1be67c253ee4d10cb5d4de4",
        "verification_report.json":
            "fd5acc5c44b2f295f95fc005de6486f8ac43e4ac9058cdbf0161f0e7321b944c",
    },
    ("build", "--construction", "fourier", "--n-max", "3"): {
        "fourier_construction.json":
            "b3c088370b399d96096987af066c6f54a005afa24db368cc2c6c3fb8beda2325",
        "verification_report.json":
            "34aaf0e40e5b12b8c489a7ff5b7f46b130e4ae68fed93d730b504dce5a29c4c4",
    },
}


@pytest.mark.parametrize("args", sorted(PINNED_FOURIER), ids="-".join)
def test_fourier_artifacts_are_pinned(tmp_path, args):
    out = tmp_path / "o"
    assert main([*args, "--out", str(out)]) == 0
    assert _digests(out) == PINNED_FOURIER[args]


# The README's two poisson-trace commands at a point with an odd
# denominator, and the ml-poisson trace at s_max 161, the largest grid the
# integer window masses meet in CI: the radial trace's exact window masses
# (lower_bound column) and every stage function they read must keep every
# byte.
PINNED_TRACES = {
    ("schnorr-poisson", "--point=12345/65537", "--m-max", "24"): {
        "poisson_trace.csv":
            "a95f42f98ea3d679a4553ea0cdac3a11c8159acf2452ba94ac1fe80f877259f7",
        "step_construction.json":
            "b8fd5567c0f6844743a657760fc2c99241c0ae9e0dbd7805c98355d24557fa2c",
        "verification_report.json":
            "c9c6b410a20d80f037eca2f42371516b703405a39ae4207a18a002e378003a08",
    },
    ("ml-poisson", "--point=12345/65537", "--s-max", "41"): {
        "poisson_trace.csv":
            "d99d3f7a921997cdc3ebd9c896c9173b9ae0f31b18a76af60c766d55ffdc7a32",
        "tent_construction.json":
            "8395c04dd4cee7db949e0e38feca4cb38ee8782ccd9e7edf2531dff32f5e6648",
        "tent_stages.csv":
            "565fceb096af9df36881e78a96da8e3d9552c4196f141d6f5942ffee29a27e4a",
        "verification_report.json":
            "d411b432fdab825b5441a984b8f47b6d5518b6501a73beba3b3dd3ef670d6132",
    },
    ("ml-poisson", "--point=12345/65537", "--s-max", "161"): {
        "poisson_trace.csv":
            "ad97982d4904cbb3e3f52bc8a2b11633914a1ac9d3c547d8c0008f5e904a4b60",
        "tent_construction.json":
            "5cc5e40dc7110e78a2a4a05d6632e017e6b0d84637897e1d87f059306f8231c0",
        "tent_stages.csv":
            "23720e489d2265eb93327cfa941071c72cd14ddcdf7e7100307dec2358cfef1b",
        "verification_report.json":
            "d2233d9d8088466132a0fb8ac1fc12487b301ce9ca1bf21dc5adec0964344460",
    },
}


@pytest.mark.parametrize("args", sorted(PINNED_TRACES), ids="-".join)
def test_poisson_trace_artifacts_are_pinned(tmp_path, args):
    out = tmp_path / "o"
    assert main(["poisson-trace", "--construction", *args, "--out", str(out)]) == 0
    assert _digests(out) == PINNED_TRACES[args]


# The maximal operator's reports: the README weak-type battery, the battery
# of seed 12 (six sets in two windows of first cells, the most among seeds
# 0-59, against two at seed 0), the cheapest and the costliest
# three-function battery of the poisson-scan benchmark's seed-15485863
# pool, and verify-all at default caps, at direction 5's caps and at the
# verify-all benchmark's caps (VERIFY_CAPS) for the first job seeds of its
# seed-0 and seed-15485863 pools, whose reports carry pmt.weak_type and
# lemma_poisson.measure.  Every superlevel set they read must keep every
# cell of its outer and inner sets, and every value the step checks read.
# The verify-all reports carry the Fourier rows too.
PINNED_MAXIMAL = {
    ("weak-type-check", "--count", "20", "--seed", "0"): {
        "weak_type_report.json":
            "28f4cd5a8d8d279098b7c2131873e2c364c1d070e364a2234d40176786c27631",
    },
    ("weak-type-check", "--count", "20", "--seed", "12"): {
        "weak_type_report.json":
            "f833ec3f400d06d6fc1ebc7cab89b7df4d4f4e3e0b5e307598401a4637a1c305",
    },
    ("weak-type-check", "--count", "3", "--seed", "789373"): {
        "weak_type_report.json":
            "f4ed9102f1effad22b104900a45458447f80fbef6cfcb354d55313d0945601d6",
    },
    ("weak-type-check", "--count", "3", "--seed", "623416"): {
        "weak_type_report.json":
            "5c51956a64a19a30e8080e861fab509a4432edc0bf737511fe9773bc64548f28",
    },
    ("verify-all",): {
        "verification_report.json":
            "1721469ed9b309dcd659dec030fd532664c780027d9d5bcdc5e9a373703bc95c",
    },
    ("verify-all", "--n-max", "7", "--m-max", "60", "--s-max", "51", "--k-max", "6",
     "--weak-type-count", "20", "--samples", "1000"): {
        "verification_report.json":
            "3faee6f602aaaeac9fbb8bc172e08d5751c9d88d42aba087ae182b92d1e043be",
    },
    ("verify-all", "--seed", "425055", *VERIFY_CAPS): {
        "verification_report.json":
            "089e0eb9a3eb5558f34658f47ddc7e2286c1c2eea363091c303afb19bff95810",
    },
    ("verify-all", "--seed", "345762", *VERIFY_CAPS): {
        "verification_report.json":
            "d3ad9e59c0e1af5144389dd4f0f17d41fe20617c105fca20e4444c6122da98f1",
    },
}


@pytest.mark.parametrize("args", sorted(PINNED_MAXIMAL), ids="-".join)
def test_maximal_operator_reports_are_pinned(tmp_path, args):
    out = tmp_path / "o"
    assert main([*args, "--out", str(out)]) == 0
    assert _digests(out) == PINNED_MAXIMAL[args]


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"construction": "fourier", "n_max": 1,
                                  "target_point": "0/1"}))
    out = tmp_path / "o"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 0
    dump = json.loads((out / "fourier_construction.json").read_text())
    assert len(dump["stages"]) == 2  # n_max 1 from config


def test_poisson_trace_reads_construction_from_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"construction": "ml-poisson", "s_max": 9}))
    out = tmp_path / "o"
    assert main(["poisson-trace", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "tent_construction.json").exists()
    assert not (out / "step_construction.json").exists()
    report = json.loads((out / "verification_report.json").read_text())
    assert report["construction"] == "ml-poisson"
    assert [e["id"] for e in report["bounds"]] == [
        "tents.l1_bound", "tents.flip_flop", "tents.poisson_decay"]
    # a construction poisson-trace has no checks for is a usage error
    config.write_text(json.dumps({"construction": "fourier"}))
    assert main(["poisson-trace", "--config", str(config), "--out", str(out)]) == 2


def test_bad_point_is_usage_error(tmp_path):
    assert main(["poisson-trace", "--point", "one-half",
                 "--out", str(tmp_path / "o")]) == 2


def test_negative_point_value_is_accepted(tmp_path):
    spaced, joined = tmp_path / "a", tmp_path / "b"
    args = ["build", "--construction", "schnorr-poisson", "--m-max", "4"]
    assert main(args + ["--point", "-1/3", "--out", str(spaced)]) == 0
    assert main(args + ["--point=-1/3", "--out", str(joined)]) == 0
    for name in ("step_construction.json", "verification_report.json"):
        assert (spaced / name).read_bytes() == (joined / name).read_bytes()
    report = json.loads((spaced / "verification_report.json").read_text())
    assert report["target_point"] == "-1/3"


def test_unknown_config_field_is_usage_error(tmp_path):
    config = tmp_path / "config.json"
    for extra in ({"knob": 3}, {"tolerances": {"chain": 1e-3}}):
        config.write_text(json.dumps({"construction": "fourier", **extra}))
        assert main(["build", "--config", str(config)]) == 2


@pytest.mark.parametrize("exponents", [[3, 1], [2, 2]])
def test_unordered_y_exponents_are_usage_errors(tmp_path, exponents):
    out = tmp_path / "o"
    flags = ["--y-exponents", *map(str, exponents)]
    assert main(["poisson-trace", *flags, "--out", str(out)]) == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"y_exponents": exponents}))
    assert main(["poisson-trace", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("exponents", [[0, 1075], [-1100, 0]])
def test_heights_that_are_not_positive_floats_are_usage_errors(tmp_path, exponents):
    # 2^-1075 rounds to 0.0 and 2^1100 overflows
    out = tmp_path / "o"
    flags = ["--y-exponents", *map(str, exponents)]
    assert main(["poisson-trace", *flags, "--out", str(out)]) == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"y_exponents": exponents}))
    assert main(["poisson-trace", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("construction", ["schnorr-poisson", "ml-poisson"])
def test_trace_heights_past_the_finite_range_are_usage_errors(tmp_path, construction, capsys):
    """2^1023 and 2^-1074 are floats, but the closed forms overflow there and
    wrote nan rows; the edges of the admitted range give finite rows with no
    floating-point warning, at a point far from the step data too."""
    out = tmp_path / "o"
    base = ["poisson-trace", "--construction", construction, "--m-max", "6", "--s-max", "11"]
    bad = ["--y-exponents", "-1023", "-30", "0", "30", "1074"]
    assert main([*base, *bad, "--out", str(out)]) == 2
    assert "config error - y_exponents:" in capsys.readouterr().err
    assert not out.exists()
    assert main([*base, "--point", str(2 ** 400 + 1), "--out", str(out)]) == 2
    assert "config error - target_point:" in capsys.readouterr().err
    for point in ("0/1", "1000", "-7/2"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*base, "--point", point, "--y-exponents", "-500", "0", "500",
                         "--out", str(out)])
        assert code == 0
        with open(out / "poisson_trace.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert all(math.isfinite(float(row[k])) for row in rows
                   for k in ("y", "value", "lower_bound"))


def test_invalid_p_is_usage_error(tmp_path):
    assert main(["fourier-trace", "--p", "0.5", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("p", [float("nan"), float("inf")])
def test_non_finite_p_is_usage_error(tmp_path, p, capsys):
    out = tmp_path / "o"
    assert main(["fourier-trace", "--p", repr(p), "--out", str(out)]) == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"construction": "ml-poisson", "p": p}))
    assert main(["build", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("config error - p:") == 2
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    {"n_max": "3"}, {"y_exponents": 5}, {"p": "2"}, {"target_point": 3},
    {"seed": 1.5}, {"y_exponents": [0, True]}, {"c": True}, {"p": None},
])
def test_wrong_typed_config_value_is_usage_error(tmp_path, setting, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(setting))
    out = tmp_path / "o"
    assert main(["poisson-trace", "--config", str(config), "--out", str(out)]) == 2
    (name,) = setting
    assert f"config error - {name}:" in capsys.readouterr().err
    assert not out.exists()


def test_int_config_value_passes_for_a_float(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"construction": "fourier", "n_max": 1, "p": 2}))
    assert main(["build", "--config", str(config), "--out", str(tmp_path / "o")]) == 0


def test_depth_is_not_a_setting(tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["build", "--depth", "3", "--out", str(out)])
    assert exc.value.code == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"depth": 3}))
    assert main(["build", "--config", str(config), "--out", str(out)]) == 2
    assert "config error - depth:" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_check_passes(tmp_path):
    out = tmp_path / "o"
    assert main(["kernel-check", "--n-max", "6", "--lower-n-max", "8",
                 "--grid", "64", "--out", str(out)]) == 0
    report = json.loads((out / "verification_report.json").read_text())
    ids = {c["check_id"] for c in report["checks"]}
    assert "fejer.coefficients" in ids and "poisson.unit_mass" in ids


def test_verify_all_passes_and_reports(tmp_path):
    out = tmp_path / "o"
    assert main(["verify-all", *FAST_VERIFY, "--out", str(out)]) == 0
    report = json.loads((out / "verification_report.json").read_text())
    assert report["overall"] == "pass"
    assert [c["check_id"] for c in report["checks"]] == VERIFY_ALL_IDS


def test_verify_all_default_caps_within_budget(tmp_path):
    start = time.perf_counter()
    assert main(["verify-all", "--out", str(tmp_path / "o")]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report = json.loads((tmp_path / "o" / "verification_report.json").read_text())
    assert report["overall"] == "pass"
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_all_zero_caps_skips_cleanly(tmp_path):
    code = main(["verify-all", "--kernel-n-max", "0", "--lower-bound-n-max", "0",
                 "--grid-points", "0", "--n-max", "-1", "--m-max", "-1",
                 "--s-max", "0", "--k-max", "0", "--samples", "1",
                 "--weak-type-count", "0", "--out", str(tmp_path / "o")])
    assert code == 0
    report = json.loads((tmp_path / "o" / "verification_report.json").read_text())
    kernel_free = [c for c in report["checks"]
                   if c["check_id"].startswith(("fourier.", "step.", "tents.",
                                                "lemma_", "chain.", "integral_test."))]
    assert kernel_free and all(c["status"] == "skipped" for c in kernel_free)


def test_corruption_injection_is_caught_and_named(tmp_path, capsys):
    code = main(["verify-all", *FAST_VERIFY, "--inject-corruption", "fejer-coeffs",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    report = json.loads((tmp_path / "o" / "verification_report.json").read_text())
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["check_id"] for c in failed] == ["fejer.coefficients"]
    # exact coefficients are plain Fractions, rendered as such
    assert failed[0]["details"] == {"order": 0, "frequency": 1, "got": "1/1000",
                                    "want": "0", "mode": "exact"}
    assert "fejer.coefficients" in capsys.readouterr().err


def test_unknown_corruption_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """A misspelled fault exits 2 before any check runs, so a negative control
    cannot pass on an uncorrupted run."""
    monkeypatch.setattr(verify, "verify_all", lambda *a, **k: pytest.fail("checks ran"))
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--inject-corruption", "no-such-fault",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "fejer-coeffs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["verify-all", "kernel-check"])
def test_flag_defaults_are_the_caps_defaults(command, monkeypatch):
    seen = []
    monkeypatch.setattr(verify, "run_checks",
                        lambda ctx, command: seen.append(ctx.caps) or [])
    assert main([command]) == 0
    assert seen == [Caps()]


def test_weak_type_subcommand(tmp_path):
    assert main(["weak-type-check", "--count", "2", "--seed", "3",
                 "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "weak_type_report.json").read_text())
    assert report["overall"] == "pass"
    assert len(report["reports"]) == 2 * 7


@pytest.mark.parametrize("count", ["0", "-3"])
def test_weak_type_count_below_one_is_usage_error(tmp_path, count, capsys):
    out = tmp_path / "o"
    assert main(["weak-type-check", "--count", count, "--out", str(out)]) == 2
    assert "count" in capsys.readouterr().err
    assert not out.exists()


def test_registry_ids_unique_and_complete():
    ids = [check.check_id for check in CHECKS]
    assert len(ids) == len(set(ids))
    # one entry per tracked quantitative bound; verify-all runs all but the
    # fourier-trace-only jump check, in table order
    assert [c.check_id for c in CHECKS if "verify-all" in c.commands] == VERIFY_ALL_IDS
    assert set(ids) == set(VERIFY_ALL_IDS) | {"fourier.trace_jumps"}


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_fourier_trace_p3_second_stage_is_fast(tmp_path):
    # cutoff 3^8 = 6561 at stage 2; the coefficient-dict stages took minutes
    t0 = time.perf_counter()
    assert main(["fourier-trace", "--p", "3", "--n-max", "2", "--point=41/64",
                 "--out", str(tmp_path / "o")]) == 0
    assert time.perf_counter() - t0 < 10.0
