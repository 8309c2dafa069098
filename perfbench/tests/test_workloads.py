"""Seeded inputs: deterministic, relative, and clear of the decomposition poles."""

import pytest

import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_argv_and_files(name, tmp_path):
    first, second = workloads.build(name, 7), workloads.build(name, 7)
    assert [c.argv for c in first.commands] == [c.argv for c in second.commands]
    first.materialize(tmp_path / "a")
    second.materialize(tmp_path / "b")
    for rel in first.files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_argv_names_only_relative_paths(name):
    for command in workloads.build(name, 3).commands:
        assert command.output.startswith("out")
        assert not any(arg.startswith("/") for arg in command.argv)


def test_seeds_change_the_inputs():
    a, b = workloads.build("numeric-checks", 1), workloads.build("numeric-checks", 2)
    assert a.files["grid.json"] != b.files["grid.json"]
    assert a.commands[0].argv != b.commands[0].argv


def test_grid_stays_off_the_poles():
    for seed in range(200):
        for z, tau, order in workloads.seeded_grid(seed):
            assert workloads.pole_distance(z, tau) >= workloads.POLE_GAP
            if z.imag == 0:
                assert min(abs(z.real - k / 4) for k in range(5)) >= workloads.POLE_GAP


def test_pole_distance_sees_lattice_translates():
    tau = 0.3 + 0.2j
    assert workloads.pole_distance(0.25 + tau, tau) < 1e-12
    assert workloads.pole_distance(0.5 - 2 * tau, tau) < 1e-12
    assert workloads.pole_distance(0.125, tau) == pytest.approx(0.125)


def test_grid_covers_the_false_bound_region():
    grid = workloads.seeded_grid(0)
    risky = [p for p in grid if abs(p[0].imag) > 0.3 and p[1].imag < 0.35 and p[2] < 100]
    assert len(risky) >= 4
