import inspect
import weakref

import pytest

from sectorsearch import cli
from sectorsearch.engine import SearchConfig
from sectorsearch.errors import FormatError
from sectorsearch.instance import (
    CONSTRAINT_KINDS,
    ConstraintSpec,
    GridSpec,
    Instance,
    dumps,
    generate,
    load,
    load_solution,
    loads,
    save,
    save_solution,
)


def tiny_instance():
    return Instance(
        colours=2,
        grid=GridSpec(width=4, height=1),
        workloads={0: 1, 1: 2, 2: 3, 3: 4},
        flights=[],
        constraints=[
            ConstraintSpec(
                id="connected",
                kind="connected",
                params={"relop": "=", "counter": 2, "mode": "exact"},
            )
        ],
        search=SearchConfig(seed=1),
    )


def test_round_trip_is_canonical(tmp_path):
    instance = generate(seed=3, width=4, height=3, colours=3, flights=2)
    first = tmp_path / "a.inst"
    second = tmp_path / "b.inst"
    save(instance, str(first))
    save(load(str(first)), str(second))
    assert first.read_text() == second.read_text()


def test_loads_reports_field_paths():
    text = dumps(tiny_instance()).replace("w 2 3\n", "")
    with pytest.raises(FormatError, match="workloads"):
        loads(text)

    bad_kind = dumps(tiny_instance()).replace("kind connected", "kind sparkly")
    with pytest.raises(FormatError, match="constraint"):
        loads(bad_kind)

    with pytest.raises(FormatError, match="header"):
        loads("bogus file\n")


def test_unknown_keys_rejected():
    text = dumps(tiny_instance()).replace("relop =", "frobnitz 3")
    with pytest.raises(FormatError, match="frobnitz"):
        loads(text)


def test_comments_are_ignored():
    text = dumps(tiny_instance()) + "# trailing comment\n"
    loads(text)


def test_generate_is_deterministic():
    a = generate(seed=9, width=5, height=5, colours=3, flights=2)
    b = generate(seed=9, width=5, height=5, colours=3, flights=2)
    assert dumps(a) == dumps(b)
    c = generate(seed=10, width=5, height=5, colours=3, flights=2)
    assert dumps(a) != dumps(c)


def test_generate_flights_validate():
    instance = generate(seed=4, width=6, height=4, colours=3, flights=3)
    instance.validate()
    assert instance.workload_total() == sum(instance.workloads.values())


def _count_grid_builds(monkeypatch):
    calls = []
    build = GridSpec.build

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(GridSpec, "build", counted)
    return calls


def test_generate_builds_no_geometry(monkeypatch):
    calls = _count_grid_builds(monkeypatch)
    instance = generate(seed=4, width=6, height=4, colours=3, flights=3)
    assert calls == []
    assert sorted(instance.workloads) == list(range(24))


def test_loads_then_build_makes_one_geometry(monkeypatch):
    text = dumps(generate(seed=4, width=6, height=4, colours=3, flights=3))
    calls = _count_grid_builds(monkeypatch)
    instance = loads(text)
    model = instance.build()
    assert len(calls) == 1
    assert instance.validate() is model.state.geometry
    assert len(calls) == 1


def test_validate_follows_a_changed_grid():
    instance = tiny_instance()
    g = instance.validate()
    assert instance.validate() is g
    instance.grid.width = 5  # changed in place: vertex 4 has no workload
    with pytest.raises(FormatError):
        instance.validate()
    instance.workloads[4] = 1
    assert len(instance.validate().vertices) == 5
    instance.grid = GridSpec(width=4, height=1)
    del instance.workloads[4]
    assert instance.validate() is not g
    assert len(instance.validate().vertices) == 4


def test_generated_model_builds_all_kinds():
    instance = generate(
        seed=5,
        width=4,
        height=4,
        colours=3,
        flights=1,
        with_compact=True,
        with_nonborder=True,
        bounded_threshold=200,
    )
    model = instance.build()
    kinds = {c.id for c, _ in model.entries}
    assert kinds == {"connected", "balance", "dwell0", "inside0", "compactness", "cap"}


def test_file_parameters_are_constructor_keywords():
    # build passes each parameter it does not resolve itself to the kind's
    # constructor by name, so a renamed constructor argument fails here
    instance = generate(
        seed=5,
        width=4,
        height=4,
        colours=3,
        flights=1,
        with_compact=True,
        with_nonborder=True,
        bounded_threshold=200,
    )
    instance.constraints.append(
        ConstraintSpec(id="volume", kind="balanced_size", params={"delta_scaled": 10})
    )
    kinds = {spec.id: spec.kind for spec in instance.constraints}
    assert set(kinds.values()) == set(CONSTRAINT_KINDS)
    by_name = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    for constraint, _ in instance.build().entries:
        required, optional = CONSTRAINT_KINDS[kinds[constraint.id]]
        keywords = inspect.signature(type(constraint)).parameters
        for param in set(required + optional) - {"flight", "counter_min", "counter_max"}:
            assert param in keywords, (kinds[constraint.id], param)
            assert keywords[param].kind in by_name


def test_solution_round_trip(tmp_path):
    path = tmp_path / "t.sol"
    colours = {0: 1, 1: 2, 2: 1}
    save_solution(colours, str(path))
    assert load_solution(str(path)) == (colours, {})
    save_solution(colours, str(path), {"connected": 3, "other": 1})
    assert path.read_text().endswith("colour 2 1\ncounter connected 3\ncounter other 1\n")
    assert load_solution(str(path)) == (colours, {"connected": 3, "other": 1})


def test_cli_pipeline(tmp_path):
    inst = tmp_path / "g.inst"
    sol = tmp_path / "g.sol"
    trace = tmp_path / "g.csv"
    assert cli.main([
        "generate", "--seed", "2", "--width", "5", "--height", "5",
        "--colours", "3", "-o", str(inst),
    ]) == 0
    assert cli.main([
        "solve", str(inst), "-o", str(sol), "--trace", str(trace),
        "--iters", "5000",
    ]) == 0
    assert cli.main(["check", str(inst), str(sol)]) == 0
    header = trace.read_text().splitlines()[0]
    assert header == "iteration,total,connected,balance,dwell0"


def test_cli_solve_reports_the_rebuilt_total(tmp_path, capsys):
    """A paper-fast search that claims zero on a colouring whose rebuild
    violates: solve prints and exits on the rebuilt total, as check does."""
    inst = tmp_path / "f.inst"
    sol = tmp_path / "f.sol"
    trace = tmp_path / "f.csv"
    save(generate(seed=1, width=12, height=12, colours=5, flights=3, balanced_share=0.03),
         str(inst))
    code = cli.main([
        "solve", str(inst), "-o", str(sol), "--mode", "paper-fast", "--seed", "2",
        "--iters", "4000", "--trace", str(trace),
    ])
    out = capsys.readouterr().out
    assert "best: seed 2 violation 11 (the search reported 0)" in out
    assert code == 1
    # the trace keeps the search's own figures; they do not set the exit code
    assert trace.read_text().splitlines()[-1].split(",")[1] == "0"
    assert cli.main(["check", str(inst), str(sol)]) == 1
    assert "total 11" in capsys.readouterr().out


def test_cli_solve_rebuilds_with_the_searched_counters(tmp_path, capsys):
    """A search that reaches zero by moving a searchable counter away from
    the file's value: solve rebuilds with the searched counter, reports it
    and writes it to the solution file, so check agrees with solve."""
    instance = generate(seed=4, width=6, height=6, colours=3, flights=1)
    for spec in instance.constraints:
        if spec.kind == "connected":
            spec.params.update(counter=4, counter_min=2, counter_max=4)
    inst = tmp_path / "c.inst"
    sol = tmp_path / "c.sol"
    save(instance, str(inst))
    assert cli.main(["solve", str(inst), "-o", str(sol), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "best: seed 0 violation 0\n" in out
    assert "counter connected 3\n" in out
    assert "counter connected 3\n" in sol.read_text()
    assert cli.main(["check", str(inst), str(sol)]) == 0
    out = capsys.readouterr().out
    assert "constraint connected violation 0" in out
    assert "total 0\n" in out


def test_cli_solve_writes_the_best_states_counters(tmp_path, capsys):
    """A run whose counter moved on after its best state: solve reports,
    prints and writes the best state's counter, so its total is the
    search's and check agrees with it."""
    instance = generate(seed=2, width=6, height=6, colours=3, flights=1, balanced_share=0.01)
    for spec in instance.constraints:
        if spec.kind == "connected":
            spec.params.update(counter_min=2, counter_max=4)
    inst = tmp_path / "b.inst"
    sol = tmp_path / "b.sol"
    save(instance, str(inst))
    assert cli.main(["solve", str(inst), "-o", str(sol), "--seed", "2", "--iters", "60"]) == 1
    out = capsys.readouterr().out
    assert "best: seed 2 violation 1\n" in out
    assert "counter connected 4\n" in out
    assert "counter connected 4\n" in sol.read_text()
    assert cli.main(["check", str(inst), str(sol)]) == 1
    assert "total 1\n" in capsys.readouterr().out


def test_cli_check_takes_the_solve_weights(tmp_path, capsys):
    """check --weights rebuilds the total that solve --weights reports."""
    inst = tmp_path / "w.inst"
    sol = tmp_path / "w.sol"
    save(generate(seed=5, width=6, height=6, colours=3, flights=1, balanced_share=0.01),
         str(inst))
    weights = ["--weights", "dwell0=5"]
    assert cli.main(["solve", str(inst), "-o", str(sol), "--seed", "4", "--iters", "100",
                     *weights]) == 1
    assert "best: seed 4 violation 7\n" in capsys.readouterr().out
    assert cli.main(["check", str(inst), str(sol)]) == 1
    assert "total 3\n" in capsys.readouterr().out
    assert cli.main(["check", str(inst), str(sol), *weights]) == 1
    assert "total 7\n" in capsys.readouterr().out


def test_cli_check_reports_violations(tmp_path, capsys):
    instance = tiny_instance()
    inst = tmp_path / "p.inst"
    sol = tmp_path / "p.sol"
    save(instance, str(inst))
    save_solution({0: 1, 1: 1, 2: 2, 3: 1}, str(sol))
    assert cli.main(["check", str(inst), str(sol)]) == 1
    out = capsys.readouterr().out
    assert "constraint connected violation 2" in out


def test_cli_oracle(tmp_path, capsys):
    instance = Instance(
        colours=2,
        grid=GridSpec(width=3, height=1),
        workloads={0: 1, 1: 1, 2: 1},
        flights=[],
        constraints=[
            ConstraintSpec(
                id="connected",
                kind="connected",
                params={"relop": "=", "counter": 1, "mode": "exact"},
            )
        ],
        search=SearchConfig(),
    )
    inst = tmp_path / "o.inst"
    save(instance, str(inst))
    assert cli.main(["oracle", str(inst), "--list"]) == 0
    out = capsys.readouterr().out
    assert "solutions 2" in out


def test_cli_solve_parallel_and_overrides(tmp_path):
    inst = tmp_path / "m.inst"
    sol = tmp_path / "m.sol"
    assert cli.main([
        "generate", "--seed", "6", "--width", "4", "--height", "4",
        "--colours", "3", "-o", str(inst),
    ]) == 0
    code = cli.main([
        "solve", str(inst), "-o", str(sol), "--seed", "4", "--parallel", "2",
        "--iters", "4000", "--mode", "exact", "--weights", "balance=2",
    ])
    assert code in (0, 1)
    assert sol.exists()


def test_cli_solve_parallel_keeps_only_the_best_model(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "p.inst"
    save(generate(seed=6, width=4, height=4, colours=3), str(inst))
    searched = []
    alive = []
    real_search = cli.search

    def counting_search(model, cfg):
        searched.append(weakref.ref(model))
        alive.append(sum(ref() is not None for ref in searched))
        return real_search(model, cfg)

    monkeypatch.setattr(cli, "search", counting_search)
    cli.main(["solve", str(inst), "--seed", "1", "--parallel", "4", "--iters", "50"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:4]] == [f"seed {s}" for s in (1, 2, 3, 4)]
    assert lines[4].startswith("best: seed ")
    # a result keeps no model, so only the one being searched is alive
    assert alive == [1, 1, 1, 1]


def test_cli_solve_replay_identical(tmp_path):
    inst = tmp_path / "r.inst"
    cli.main([
        "generate", "--seed", "8", "--width", "5", "--height", "4",
        "--colours", "3", "-o", str(inst),
    ])
    t1 = tmp_path / "r1.csv"
    t2 = tmp_path / "r2.csv"
    cli.main(["solve", str(inst), "--trace", str(t1), "--seed", "12", "--iters", "3000"])
    cli.main(["solve", str(inst), "--trace", str(t2), "--seed", "12", "--iters", "3000"])
    assert t1.read_text() == t2.read_text()


def test_solution_with_unknown_vertex_rejected(tmp_path):
    instance = tiny_instance()
    inst = tmp_path / "q.inst"
    sol = tmp_path / "q.sol"
    save(instance, str(inst))
    save_solution({0: 1, 1: 1, 2: 2, 3: 1, 9: 1}, str(sol))
    assert cli.main(["check", str(inst), str(sol)]) == 2


def test_cli_bad_file_exit_code(tmp_path):
    bad = tmp_path / "bad.inst"
    bad.write_text("not an instance\n")
    assert cli.main(["check", str(bad), str(bad)]) == 2
    assert cli.main(["solve", str(tmp_path / "missing.inst")]) == 2
