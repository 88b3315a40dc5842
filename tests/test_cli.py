import hashlib
import json
import sys
from pathlib import Path

import networkx as nx
import pytest

from egr import adg, automorphisms, census, cli, families
from egr.cli import main
from egr.finite_field import Field


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_edge_list_golden(capsys, tmp_path):
    out_file = tmp_path / "w1q2.txt"
    code, stdout, _ = run(
        capsys, "generate", "--family", "wenger:n=1,q=2", "--output", str(out_file)
    )
    assert code == 0
    expected = "P0 L4\nP0 L5\nP1 L4\nP1 L7\nP2 L6\nP2 L7\nP3 L5\nP3 L6\n"
    assert stdout == expected
    assert out_file.read_text(encoding="ascii") == expected


def test_generate_unwritable_output_prints_nothing(capsys, tmp_path):
    bad = tmp_path / "missing" / "x.txt"
    code, stdout, stderr = run(
        capsys, "generate", "--family", "wenger:n=1,q=3", "--output", str(bad)
    )
    assert code == 1
    assert stdout == ""
    assert len(stderr.splitlines()) == 1 and stderr.startswith("egr: ")


@pytest.mark.parametrize(
    "family, fmt, digest",
    [
        ("wenger:n=2,q=16", "edges", "9c4ee3b02dde860db58f5ada69a7e7cd70c197794f9b7d4e96de95459e4d1792"),
        ("lwenger:m=3,q=8", "edges", "58c7ea8ed3baac3761221b3bd3b65322daa8a49ca894835a2d94b88cfac0547b"),
        ("lie:M3,q=5", "edges", "c8bda23d37f328179df89b91fbc60677ef9c91fd228e345cdc0605119cc237f3"),
        ("wenger:n=2,q=11", "g6", "fe4f02bb30e0484b9a8f7a7fb7f07f4f50ec482d542808fd11f10d55de27afbe"),
        ("lwenger:m=2,q=9", "g6", "22e06830a96fb60b123f88047a5dffd20aac2f04e506fc10e1f39c708389531e"),
    ],
)
def test_generate_golden_digests(capsys, family, fmt, digest):
    # pinned from the polynomial-basis implementation that preceded the
    # log/Zech tables: p = 2 and odd-p extension fields, edge list and graph6
    code, stdout, _ = run(capsys, "generate", "--family", family, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(stdout.encode("ascii")).hexdigest() == digest


def test_generate_line_counts(capsys):
    code, stdout, _ = run(capsys, "generate", "--family", "wenger:n=1,q=3")
    assert code == 0
    assert len(stdout.strip().splitlines()) == 27


def test_generate_lwenger_m1_matches_wenger_n1(capsys):
    _, a, _ = run(capsys, "generate", "--family", "wenger:n=1,q=3")
    _, b, _ = run(capsys, "generate", "--family", "lwenger:m=1,q=3")
    assert a == b


def test_generate_graph6_decodes(capsys):
    code, stdout, _ = run(
        capsys, "generate", "--family", "wenger:n=1,q=3", "--format", "g6"
    )
    assert code == 0
    decoded = nx.from_graph6_bytes(stdout.strip().encode("ascii"))
    assert decoded.number_of_nodes() == 18
    assert decoded.number_of_edges() == 27


def test_generate_deterministic(capsys):
    _, a, _ = run(capsys, "generate", "--family", "lwenger:m=2,q=3")
    _, b, _ = run(capsys, "generate", "--family", "lwenger:m=2,q=3")
    assert a == b


def test_certify_json_and_expectations(capsys):
    code, stdout, _ = run(
        capsys,
        "certify",
        "--family",
        "wenger:n=2,q=3",
        "--mode",
        "exhaustive",
        "--expect-predicted",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["v"] == 54
    assert payload["lambda"] == 8
    assert payload["total_girth_cycles"] == 81
    assert payload["match"] is True
    assert payload["field"] == {"p": 3, "e": 1, "modulus": [0, 1]}


def test_certify_auto_builds_one_graph(capsys, monkeypatch):
    calls = {"build_adjacency": 0, "girth_of_adjacency": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(adg, "build_adjacency")
    counted(census, "girth_of_adjacency")
    code, stdout, _ = run(capsys, "certify", "--family", "wenger:n=2,q=5", "--workers", "1")
    assert code == 0
    assert json.loads(stdout)["mode"] == "exhaustive"
    assert calls == {"build_adjacency": 1, "girth_of_adjacency": 1}


def count_relation_sets(monkeypatch, calls):
    """Count families.relations and Field.__init__ calls into `calls`."""
    original_relations = families.relations
    original_init = Field.__init__

    def relations(*args, **kwargs):
        calls["relations"] += 1
        return original_relations(*args, **kwargs)

    def init(self, *args, **kwargs):
        calls["Field.__init__"] += 1
        original_init(self, *args, **kwargs)

    # replace the function wherever an egr module binds it
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "egr" and getattr(module, "relations", None) is original_relations:
            monkeypatch.setattr(module, "relations", relations)
    monkeypatch.setattr(Field, "__init__", init)


def test_certify_builds_one_relation_set(capsys, monkeypatch):
    calls = {"relations": 0, "Field.__init__": 0}
    count_relation_sets(monkeypatch, calls)
    code, stdout, _ = run(capsys, "certify", "--family", "wenger:n=2,q=5", "--workers", "1")
    assert code == 0
    assert json.loads(stdout)["field"] == {"p": 5, "e": 1, "modulus": [0, 1]}
    assert calls == {"relations": 1, "Field.__init__": 1}


@pytest.mark.parametrize(
    "mode_args, mode, edges_counted",
    [
        # 256 draws of the seeded sampler hit 210 distinct edges
        (("--mode", "sampled", "--seed", "0", "--sample-count", "256"), "sampled:seed=0,count=256", 210),
        (("--mode", "exhaustive"), "exhaustive", 5**4),
        (("--mode", "base-edge"), "base-edge-only", 1),
    ],
)
def test_certify_reports_edges_counted(capsys, mode_args, mode, edges_counted):
    code, stdout, _ = run(
        capsys, "certify", "--family", "wenger:n=2,q=5", *mode_args, "--workers", "1"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["mode"] == mode
    assert payload["edges_counted"] == edges_counted
    assert payload["lambda"] == 160


@pytest.mark.parametrize(
    "argv, named",
    [
        (("--mode", "sampled", "--sample-count", "0"), "sample count"),
        (("--mode", "sampled", "--sample-count", "-1"), "sample count"),
        (("--workers", "0"), "--workers"),
        (("--workers", "-2"), "--workers"),
        (("--workers", "two"), "--workers"),
    ],
)
def test_certify_bad_input_is_one_line_exit_1(capsys, argv, named):
    code, stdout, err = run(capsys, "certify", "--family", "wenger:n=1,q=3", *argv)
    assert code == cli.EXIT_ERROR
    assert stdout == ""
    assert err.startswith("egr: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_bad_egr_workers_is_named(capsys, monkeypatch, value):
    monkeypatch.setenv("EGR_WORKERS", value)
    with pytest.raises(ValueError, match="EGR_WORKERS"):
        cli.resolve_workers(None)
    code, _, err = run(capsys, "certify", "--family", "wenger:n=1,q=3")
    assert code == cli.EXIT_ERROR
    assert err.count("\n") == 1 and "EGR_WORKERS" in err and repr(value) in err


def test_resolve_workers_rejects_bad_flags():
    for flag in (0, -2, "0", "x", "1.5"):
        with pytest.raises(ValueError, match="--workers"):
            cli.resolve_workers(flag)
    assert cli.resolve_workers("3") == 3


def test_sampled_rejects_a_count_below_one():
    for count in (0, -1):
        with pytest.raises(ValueError, match="sample count"):
            census.Sampled(seed=0, count=count)
    assert census.Sampled(count=1).count == 1


def test_certify_mismatch_exit_code(capsys):
    code, stdout, _ = run(
        capsys, "certify", "--family", "wenger:n=2,q=3", "--expect", "g=8,lambda=9"
    )
    assert code == cli.EXIT_MISMATCH
    payload = json.loads(stdout)
    assert payload["match"] is False


def test_certify_expect_parse_error(capsys):
    code, _, err = run(capsys, "certify", "--family", "wenger:n=2,q=3", "--expect", "g=8")
    assert code == cli.EXIT_ERROR
    assert "lambda" in err


def test_certify_nonuniform_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise census.NonUniformCountsError((0, 9, 0), (1, 9, 4), 6)

    monkeypatch.setattr(cli, "certify", boom)
    code, stdout, _ = run(capsys, "certify", "--family", "wenger:n=1,q=3")
    assert code == cli.EXIT_NONUNIFORM
    payload = json.loads(stdout)
    assert payload["error"] == "non-uniform"
    assert payload["g"] == 6
    assert "girth g = 6" in payload["detail"]


def test_auto_mode_takes_the_sample_count():
    args = cli.build_parser().parse_args(
        ["certify", "--family", "wenger:n=1,q=3", "--seed", "4", "--sample-count", "64"]
    )
    assert cli._census_mode(args) == census.Auto(seed=4, count=64)


def test_certify_json_stable_modulo_elapsed(capsys):
    results = []
    for workers in ("1", "2"):
        _, stdout, _ = run(
            capsys,
            "certify",
            "--family",
            "wenger:n=2,q=3",
            "--mode",
            "exhaustive",
            "--workers",
            workers,
        )
        payload = json.loads(stdout)
        payload.pop("elapsed_ms")
        payload.pop("workers")
        results.append(json.dumps(payload, sort_keys=True))
    assert results[0] == results[1]


def test_workers_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("EGR_WORKERS", "1")
    assert cli.resolve_workers(None) == 1
    assert cli.resolve_workers(2) == 2
    monkeypatch.delenv("EGR_WORKERS")
    assert cli.resolve_workers(None) == census.default_workers()


def test_predict_json(capsys):
    code, stdout, _ = run(
        capsys, "predict", "--family", "wenger:n=1,q=3", "--bounds", "--turan"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["girth"] == 6
    assert payload["lambda"] == 4
    assert payload["moore"] == 14
    assert payload["extremal_bipartite"] == 18
    assert payload["sandwich"] == [18, 18]
    assert payload["turan"] == 18


def test_predict_builds_no_relation_set(capsys, monkeypatch):
    calls = {"relations": 0, "Field.__init__": 0}
    count_relation_sets(monkeypatch, calls)
    code, stdout, _ = run(capsys, "predict", "--family", "lwenger:m=2,q=8")
    assert code == 0
    assert json.loads(stdout)["field"] == {"p": 2, "e": 3, "modulus": [1, 0, 1, 1]}
    assert calls == {"relations": 0, "Field.__init__": 1}


def test_predict_sandwich_only_at_its_lambda(capsys):
    # W_1(5) has the sandwich's lambda (q-1)**2*(q-2) = 48
    _, stdout, _ = run(capsys, "predict", "--family", "wenger:n=1,q=5", "--bounds")
    payload = json.loads(stdout)
    assert payload["lambda"] == 48
    assert payload["sandwich"] == [50, 50]
    # W_2(5) has lambda 160; the g = 8 sandwich is computed at 192
    _, stdout, _ = run(capsys, "predict", "--family", "wenger:n=2,q=5", "--bounds")
    payload = json.loads(stdout)
    assert payload["lambda"] == 160
    assert "sandwich" not in payload


def test_predict_turan_even_q_is_null(capsys):
    code, stdout, _ = run(capsys, "predict", "--family", "wenger:n=1,q=4", "--turan")
    assert code == 0
    assert json.loads(stdout)["turan"] is None


def test_predict_lie_m3_fails_cleanly(capsys):
    code, _, err = run(capsys, "predict", "--family", "lie:M3,q=5")
    assert code == cli.EXIT_ERROR
    assert "lie-m3" in err


def test_table_small_grid(capsys):
    code, stdout, _ = run(
        capsys, "table", "--family", "wenger", "--index", "1,2", "--q", "2,3"
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 5
    assert all(line.endswith("yes") for line in lines[1:])


def test_table_empty_grid(capsys):
    code, stdout, _ = run(capsys, "table", "--family", "wenger", "--index", "1", "--q", "")
    assert code == 0
    assert len(stdout.strip().splitlines()) == 1  # header only


def test_table_samples_a_cell_over_budget(capsys, monkeypatch):
    # W_1(3)'s census takes 27 * 2**2 steps
    monkeypatch.setattr(census, "AUTO_BUDGET", 27 * 2**2 - 1)
    code, stdout, _ = run(
        capsys, "table", "--family", "wenger", "--index", "1", "--q", "3", "--workers", "1"
    )
    assert code == 0
    row = stdout.strip().splitlines()[1].split()
    assert row[0] == "wenger:n=1,q=3"
    assert row[-2:] == ["sampled:seed=0,count=256", "yes"]
    # the table certifies a cell as certify's default mode does
    code, stdout, _ = run(capsys, "certify", "--family", "wenger:n=1,q=3", "--workers", "1")
    assert code == 0
    payload = json.loads(stdout)
    assert [payload["mode"], str(payload["lambda"])] == [row[-2], row[4]]


def test_automorphism_verify(capsys):
    code, stdout, _ = run(
        capsys,
        "automorphism",
        "verify",
        "--family",
        "lwenger:m=1,q=3",
        "--mode",
        "exhaustive",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["ok"] is True
    assert payload["counterexample"] is None
    assert payload["maps_checked"] == 9
    assert payload["edges_mapped_to_base"] == 27


def test_automorphism_rejects_other_families(capsys):
    code, _, err = run(capsys, "automorphism", "verify", "--family", "wenger:n=1,q=3")
    assert code == cli.EXIT_ERROR
    assert "lwenger" in err


def count_calls(monkeypatch, calls: dict, module, name) -> None:
    """Count calls of module.name in calls[name], wherever an egr module
    binds it."""
    original = getattr(module, name)
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "egr" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)


@pytest.mark.parametrize(
    "family, mode, edge_iter_calls, draw_calls, neighbors_calls",
    [
        # every edge of L_1(3), listed once: 9 points, one neighbors call each
        ("lwenger:m=1,q=3", "exhaustive", 1, 0, 9),
        # 512 draws on L_2(4), one neighbors call each
        ("lwenger:m=2,q=4", "sampled", 0, 1, 512),
    ],
)
def test_automorphism_verify_builds_one_edge_set(
    capsys, monkeypatch, family, mode, edge_iter_calls, draw_calls, neighbors_calls
):
    calls: dict = {}
    count_calls(monkeypatch, calls, adg, "edge_iter")
    count_calls(monkeypatch, calls, census, "sample_draws")
    count_calls(monkeypatch, calls, adg, "neighbors")
    code, stdout, _ = run(capsys, "automorphism", "verify", "--family", family, "--mode", mode)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["ok"] is True
    assert calls == {
        "edge_iter": edge_iter_calls,
        "sample_draws": draw_calls,
        "neighbors": neighbors_calls,
    }


def test_automorphism_reports_a_broken_sigma(capsys, monkeypatch):
    real = automorphisms.apply_sigma

    def broken(sigma, v):
        image = real(sigma, v)
        if sigma.i == 2 and sigma.x.index == 1 and v.side is adg.Side.POINT:
            c = list(image.coords)
            c[1] = c[1] + sigma.x  # adds x where sigma(2, x) subtracts it
            image = adg.Vertex(v.side, tuple(c))
        return image

    monkeypatch.setattr(automorphisms, "apply_sigma", broken)
    code, stdout, _ = run(capsys, "automorphism", "verify", "--family", "lwenger:m=1,q=3")
    assert code == cli.EXIT_ERROR
    payload = json.loads(stdout)
    assert payload["ok"] is False
    assert payload["counterexample"] == {"sigma": {"i": 2, "x": 1}, "point": 0, "line": 9}
    assert "maps_checked" not in payload


def test_automorphism_reports_an_edge_not_sent_to_base(capsys, monkeypatch):
    monkeypatch.setattr(automorphisms, "edge_to_base", lambda edge, m, q: [])
    code, stdout, _ = run(capsys, "automorphism", "verify", "--family", "lwenger:m=1,q=3")
    assert code == cli.EXIT_ERROR
    # the first edge, P0 L9, is the zero edge itself; the second is not
    assert json.loads(stdout)["counterexample"] == {"edge_to_base": True, "point": 0, "line": 10}


@pytest.mark.parametrize(
    "argv, named",
    [
        (("certify",), "--family"),
        (("certify", "--family", "wenger:n=1,q=3", "--seed", "x"), "--seed"),
        (("bench", "wenger:n=2,q=2"), "'bench'"),
        ((), "command"),
        (("certify", "--family", "wenger:n=1,q=3,q=5"), "repeated key 'q'"),
        (("predict", "--family", "lie:M1,q=5,n=9"), "unknown key 'n'"),
        (("predict", "--family", "wenger:n=1,q=5,m=7"), "unknown key 'm'"),
        (("generate", "--family", "wenger:n=1,q=abc"), "q must be an integer"),
        (("certify", "--family", "wenger:n=1,q=3", "--expect", "g"), "--expect"),
        (("certify", "--family", "wenger:n=1,q=3", "--expect", "g=x,lambda=1"), "'g=x,lambda=1'"),
        (("table", "--family", "wenger", "--q", "3,x", "--index", "1"), "--q needs comma-separated integers, got '3,x'"),
        (("table", "--family", "wenger", "--q", "3", "--index", "1,y"), "--index needs comma-separated integers, got '1,y'"),
        (("table", "--family", "wenger", "--q", ",", "--index", "1"), "--q needs comma-separated integers, got ','"),
        (("certify", "--family", "wenger:n=1,q=3", "--mode", "sampled", "--sample-count", "1000001"), "between 1 and 1000000"),
        (("table", "--family", "wenger", "--q", "3", "--index", "1", "--cutoff", "10"), "--cutoff"),
    ],
)
def test_usage_errors_are_one_line_exit_1(capsys, argv, named):
    code, stdout, err = run(capsys, *argv)
    assert code == cli.EXIT_ERROR
    assert stdout == ""
    assert err.startswith("egr: ") and err.count("\n") == 1
    assert named in err


def readme_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("egr ")]


def test_readme_cli_commands_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        assert run(capsys, *argv)[0] == cli.EXIT_OK, argv


def test_invalid_family_spec(capsys):
    code, _, err = run(capsys, "generate", "--family", "wenger:n=1,q=6")
    assert code == cli.EXIT_ERROR
    assert "prime power" in err
