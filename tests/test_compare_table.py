"""The table arithmetic of ``benchmarks/compare.py`` on canned runs: what
counts as a win, which spread is set against which bound, and when a row
reads better / worse / same / unresolved."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare", Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)

TEN_A = [535, 538, 531, 540, 529, 533, 536, 534, 537, 532]


def test_spread_is_the_distance_between_the_quartiles():
    assert compare.spread_of([1, 2, 3, 4, 5]) == 2      # inclusive quartiles 2 and 4
    assert compare.spread_of([7.0]) == 0.0
    assert compare.spread_of([3, 3, 3, 3]) == 0


def test_a_clear_gain_reads_better_with_delta_relative_to_the_pair_mean():
    b = [value + 200 for value in TEN_A]
    row = compare.summarize(TEN_A, b, better="higher", bound=0.15)
    assert (row.median_a, row.median_b) == (534.5, 734.5)
    assert row.delta == pytest.approx(200 / 634.5)
    assert (row.b_better, row.a_better, row.verdict) == (10, 0, "better")
    # The same runs with the sides swapped read as the mirror image.
    mirror = compare.summarize(b, TEN_A, better="higher", bound=0.15)
    assert mirror.delta == pytest.approx(-row.delta)
    assert (mirror.b_better, mirror.a_better, mirror.verdict) == (0, 10, "worse")


def test_lower_is_better_flips_what_a_win_is():
    a, b = [1.83, 1.85, 1.80, 1.84, 1.82] * 2, [1.26, 1.27, 1.25, 1.28, 1.26] * 2
    row = compare.summarize(a, b, better="lower", bound=0.15)
    assert (row.b_better, row.verdict) == (10, "better") and row.delta < 0
    assert compare.summarize(a, b, better="higher", bound=0.15).verdict == "worse"


def test_eight_wins_in_ten_is_not_a_gain_and_ties_count_for_neither_side():
    b = [value + 3 for value in TEN_A]
    b[0], b[1] = TEN_A[0] - 1, TEN_A[1] - 1                 # two losses
    assert compare.summarize(TEN_A, b, "higher", 0.15).verdict == "same"
    b[1] = TEN_A[1]                                         # one loss, one tie: 8 wins
    row = compare.summarize(TEN_A, b, "higher", 0.15)
    assert (row.b_better, row.a_better, row.verdict) == (8, 1, "same")


def test_a_gain_inside_the_parents_own_spread_is_not_resolved():
    noisy_a = [500, 560, 520, 580, 510, 570, 530, 590, 540, 550]
    b = [value + 10 for value in noisy_a]                   # wins every pair, by less than A's IQR
    row = compare.summarize(noisy_a, b, "higher", 0.15)
    assert (row.b_better, row.verdict) == (10, "same")


def test_under_ten_pairs_the_win_share_reads_neither_better_nor_worse():
    # Two of two pairs lost by 12 % is no verdict against a 25 % bound:
    # a set-up time drifting with the host reads this way.
    a, b = [0.30, 0.29], [0.336, 0.325]
    row = compare.summarize(a, b, "lower", bound=0.25)
    assert (row.a_better, row.verdict) == (2, "same")
    assert compare.summarize(b, a, "lower", bound=0.25).verdict == "same"
    # Nine pairs lost every time is still short of the ten the rule needs.
    nine = compare.summarize(TEN_A[:9], [v - 50 for v in TEN_A[:9]], "higher", 0.15)
    assert (nine.a_better, nine.verdict) == (9, "same")


def test_a_median_worse_than_the_bound_reads_worse_whatever_the_pairs_say():
    a = [100, 100, 100, 100]
    b = [80, 120, 80, 80]                                   # median 80: -22 % of the pair mean
    row = compare.summarize(a, b, "higher", 0.15)
    assert (row.a_better, row.verdict) == (3, "worse")


def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    a = [60, 70, 80, 66, 75]
    b = [78, 64, 69, 81, 61]
    row = compare.summarize(a, b, "lower", bound=0.10)      # peak RSS, say
    assert row.verdict == "unresolved" and row.spread > 0.10
    assert compare.summarize(a, b, "lower", bound=0.50).verdict == "same"


def test_bit_identical_sides_read_same_with_no_wins():
    sim = [3817.04, 3820.11, 3815.9]
    row = compare.summarize(sim, list(sim), "higher", 0.05)
    assert (row.delta, row.b_better, row.a_better, row.verdict) == (0.0, 0, 0, "same")


def test_render_is_one_row_per_workload_and_metric():
    metrics = [{"name": "wall_ops_per_s", "better": "higher", "bound": 0.15},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.10}]
    rows = {
        "wall_ops_per_s": compare.summarize(TEN_A, [v + 200 for v in TEN_A], "higher", 0.15),
        "peak_rss_mb": compare.summarize([50.0] * 10, [50.0] * 10, "lower", 0.10),
    }
    lines = compare.render({"hit1k_call": rows}, metrics, 10, "A = x, B = y").splitlines()
    assert len(lines) == 2 + 2
    assert lines[2].split() == [
        "hit1k_call", "wall_ops_per_s", "534.5", "734.5", "+31.5%", "10/10", "0.7%", "15%", "better"
    ]
    assert lines[3].split()[-4:] == ["0/10", "0.0%", "10%", "same"]


def test_the_worktree_side_is_exported_like_a_revision(tmp_path, monkeypatch):
    # Both sides run from a fresh directory: the working tree's tracked
    # files with their edits and its untracked files that are not
    # ignored, never the checkout itself.
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "pkg" / "kept.py").write_text("committed\n")
    (repo / "gone.py").write_text("committed\n")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-qm", "base")
    (repo / "pkg" / "kept.py").write_text("edited\n")
    (repo / "gone.py").unlink()
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "run.log").write_text("ignored\n")
    monkeypatch.setattr(compare, "ROOT", repo)

    tree = compare.check_out(compare.WORKTREE, tmp_path / "b")
    assert tree == tmp_path / "b"
    assert {p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file()} == {
        ".gitignore", "pkg/kept.py", "pkg/new.py"}
    assert (tree / "pkg" / "kept.py").read_text() == "edited\n"
    head = compare.check_out("HEAD", tmp_path / "a")
    assert (head / "pkg" / "kept.py").read_text() == "committed\n"
    assert (head / "gone.py").exists() and not (head / "pkg" / "new.py").exists()
