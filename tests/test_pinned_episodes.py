from pinned_episodes import Pin, main


def test_runner_names_each_failed_pin(capsys):
    true = Pin("grs", 10, 100, "4.660212205386256", peak_mb=1000, offers=3)
    wrong_regret = Pin("grs", 11, 100, "4.8")
    low_bound = Pin("grs", 12, 100, "4.9550370398010966", peak_mb=1)  # below any interpreter's RSS
    raising = Pin("no-such-policy", 10, 100, "0.0")
    assert main([true, wrong_regret, low_bound, raising]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == [
        "ok grs N=10 T=100",
        "FAIL grs N=11 T=100",
        "FAIL grs N=12 T=100",
    ]
    assert "cumulative regret 4.811847255825293" in lines[1]
    assert lines[2].endswith("above 1 MB")
    assert lines[3:] == [
        "FAIL no-such-policy N=10 T=100: raised",
        "failed pins: grs N=11 T=100; grs N=12 T=100; no-such-policy N=10 T=100",
    ]
    assert "no-such-policy" in captured.err  # the child's traceback
