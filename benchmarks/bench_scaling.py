"""Beyond-paper benches: dimensionality and context-length scaling studies."""

from repro.experiments import context_length_study, dimensionality_study


def test_dimensionality_study(benchmark, emit):
    """The Table V discussion, isolated: multiplexing burden vs d."""
    table = benchmark.pedantic(dimensionality_study, rounds=1, iterations=1)
    emit("scaling_dimensionality", table.format())
    # Contract: every cell finite; every method runs at every d.
    for row in table.rows:
        assert len(row) == 6
        assert all(v < 5.0 for v in row[1:]), row[0]


def test_context_length_study(benchmark, emit):
    table = benchmark.pedantic(context_length_study, rounds=1, iterations=1)
    emit("scaling_context_length", table.format())
    stationary = [row for row in table.rows if row[0].startswith("stationary")][0]
    trending_plain = [row for row in table.rows if row[0] == "trending, llama2-sim"][0]
    # Stationary: the longest context is the most accurate.
    assert stationary[-1] == min(stationary[1:])
    # Trending: plain PPM regresses with long context.
    assert trending_plain[-1] > trending_plain[1]
