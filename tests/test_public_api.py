import reservematch

# Names the benchmark under perfbench/ imports from the package root.
BENCHMARK_NAMES = (
    "ALGORITHMS",
    "SatGenConfig",
    "evaluate",
    "gen_instance",
    "RankMaximalMatcher",
    "build_graph",
    "Matching",
    "Seat",
)


def test_every_exported_name_resolves():
    missing = [name for name in reservematch.__all__ if not hasattr(reservematch, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(reservematch.__all__)) == len(reservematch.__all__)


def test_benchmark_names_are_exported():
    assert set(BENCHMARK_NAMES) <= set(reservematch.__all__)
