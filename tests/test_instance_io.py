import inspect
import weakref
from dataclasses import replace

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


def test_search_section_is_pinned():
    # the README's [search] block, then every field set to another value
    assert dumps(tiny_instance()).split("[search]\n")[1] == (
        "seed 1\nmax_iterations 20000\nrestart_after 64\n"
        "moves_per_iter 12\ninit regions\nhard -\n"
    )
    cfg = SearchConfig(
        seed=5, max_iterations=300, restart_after=90, moves_per_iter=6,
        init="keep", hard=("connected", "balance"),
    )
    assert dumps(replace(tiny_instance(), search=cfg)).split("[search]\n")[1] == (
        "seed 5\nmax_iterations 300\nrestart_after 90\n"
        "moves_per_iter 6\ninit keep\nhard connected,balance\n"
    )


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


def test_comments_and_blank_lines_inside_sections_parse():
    # a trailing comment on a workload, a leg and a header line, and blank,
    # indented and comment-only lines between workload and leg lines
    instance = generate(seed=3, width=4, height=3, colours=3, flights=1)
    text = dumps(instance)
    edited = (
        text.replace("[workloads]\n", "[workloads]  # one per cell\n\n   \n# none yet\n")
        .replace("w 2 ", "  w 2 ", 1)
        .replace("\nw 5 ", "\n\n# half way\n\t\nw 5 ", 1)
        .replace("\nleg ", "\n# the first leg\nleg ", 1)
    )
    edited = "\n".join(
        line + " #" + "x" * (no % 3) if line.startswith(("w 7 ", "leg ")) else line
        for no, line in enumerate(edited.splitlines())
    ) + "\n"
    assert edited.count("#") > 5
    loaded = loads(edited)
    assert loaded.workloads == instance.workloads
    assert loaded.flights == instance.flights
    assert dumps(loaded) == text


@pytest.mark.parametrize(
    "edit, line, message",
    [
        # a workload line short of its value, then one with a value too
        # many: refused at the first, as lines are read one at a time
        pytest.param(("w 1 ", "w 1\n2 w 3 4\nw 1 "), "w 1", "bad value in 'w 1': not enough values",
                     id="misaligned"),
        pytest.param(("w 1 ", "w 1 5 6\nw 1 "), "w 1 5 6", "bad value in 'w 1 5 6': too many values",
                     id="too-many"),
        pytest.param(("w 1 ", "w one "), "w one", "bad value in 'w one", id="not-a-number"),
        pytest.param(("w 1 ", "x 1 "), "x 1", "unknown workloads key 'x'", id="other-key"),
        pytest.param(("w 1 ", "leg 1 "), "leg 1", "unknown workloads key 'leg'", id="leg-key"),
        pytest.param(("leg ", "w  "), "w  ", "unknown flight key 'w'", id="w-in-a-flight"),
        pytest.param(("leg ", "leg 9 "), "leg 9", "bad value in 'leg 9", id="short-leg"),
    ],
)
def test_a_bad_workload_or_leg_line_is_refused_at_its_line(edit, line, message):
    text = dumps(generate(seed=3, width=4, height=3, colours=3, flights=1))
    assert edit[0] in text
    text = text.replace(*edit, 1)
    lineno = next(no for no, raw in enumerate(text.splitlines(), 1) if raw.startswith(line))
    with pytest.raises(FormatError) as caught:
        loads(text, origin="g.inst")
    assert str(caught.value).startswith(f"g.inst:{lineno}: {message}")


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


def _compact_threshold(instance):
    (spec,) = [spec for spec in instance.constraints if spec.kind == "compact"]
    return spec.params["threshold"]


@pytest.mark.parametrize(
    "width, height, threshold", [(1, 1, 6), (4, 4, 48), (6, 3, 54), (12, 12, 336), (80, 80, 13120)]
)
def test_generated_2d_compact_threshold_is_pinned(width, height, threshold):
    # the threshold does not depend on the colours; one cell takes one colour
    instance = generate(seed=1, width=width, height=height, colours=1, with_compact=True)
    assert _compact_threshold(instance) == threshold


@pytest.mark.parametrize(
    "width, height, depth, threshold", [(4, 4, 3, 176), (8, 8, 4, 768), (3, 5, 1, 76)]
)
def test_generated_3d_compact_admits_one_colour(width, height, depth, threshold):
    # the outside area plus two facets per cell: 80 + 96 on 4x4x3
    instance = generate(
        seed=1, width=width, height=height, depth=depth, dim=3, colours=3, with_compact=True
    )
    assert _compact_threshold(instance) == threshold
    model = instance.build(colours=dict.fromkeys(instance.workloads, 1))
    compact = model.constraint("compactness")
    assert compact.violation() == 0
    assert compact.check()


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
    assert "best: seed 2 violation 2 (the search reported 0)" in out
    assert code == 1
    # the trace keeps the search's own figures; they do not set the exit code
    assert trace.read_text().splitlines()[-1].split(",")[1] == "0"
    assert cli.main(["check", str(inst), str(sol)]) == 1
    assert "total 2\n" in capsys.readouterr().out


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
    assert cli.main(["solve", str(inst), "-o", str(sol), "--seed", "3", "--iters", "60"]) == 1
    out = capsys.readouterr().out
    assert "best: seed 3 violation 1\n" in out
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
    # 40 iterations end before the first restart, in a best state where
    # dwell0 is violated, so the weight shows in the total
    assert cli.main(["solve", str(inst), "-o", str(sol), "--seed", "2", "--iters", "40",
                     *weights]) == 1
    assert "best: seed 2 violation 7\n" in capsys.readouterr().out
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
