"""The fault plane: one registry, one grammar, one claim directory.

Every registered point is parsed, rejected, budgeted and claimed the
same way.  Firings run in forked children, because a point with an
exit code ends the process that fires it.
"""

import multiprocessing
import os

import pytest

from repro import faults
from repro.faults import POINTS

SEQ = 3

#: A valid value for every option, as written and as parsed.
VALID = {
    "times": ("4", 4),
    "seconds": ("2.5", 2.5),
    "delay_s": ("0.25", 0.25),
    "seq": ("7", 7),
    "role": ("worker", "worker"),
}

#: A rejected value for every option besides ``times``.
INVALID = {"seconds": "0", "delay_s": "-1", "seq": "x", "role": "nobody"}


def _armed(point, **options):
    """One ``REPRO_FAULT`` item arming ``point`` so that ``_fire`` fires it."""
    if point == "checkpoint_write":
        options = {"seq": SEQ, **options}
    pairs = ",".join(f"{key}={value}" for key, value in options.items())
    return f"{point}:{pairs}" if pairs else point


def _fire(point, token=None):
    context = {}
    if point == "checkpoint_write":
        context["seq"] = SEQ
    if point.startswith("net_"):
        context["role"] = "client"
    return faults.fire(point, token=token, **context)


def _children(point, *token_lists):
    """Fork one child per token list, all at once; each fires ``point``
    once per token.  Returns the firings per child.

    A child exits with ``10 + firings``, or with the point's exit code
    when it fired one: a point with an exit code must end the child.
    A crashed child (exit 1) decodes as negative.
    """
    ctx = multiprocessing.get_context("fork")
    procs = []
    for tokens in token_lists:

        def body(tokens=tokens):
            fired = sum(_fire(point, token)[0] == point for token in tokens)
            os._exit(10 + fired)

        proc = ctx.Process(target=body)
        proc.start()
        procs.append(proc)
    counts = []
    exit_code = POINTS[point].exit_code
    for proc in procs:
        proc.join(timeout=60)
        code = proc.exitcode
        if exit_code is None:
            counts.append(code - 10)
        else:
            assert code in (exit_code, 10), code
            counts.append(int(code == exit_code))
    return counts


@pytest.fixture
def arm(monkeypatch, tmp_path):
    claims = tmp_path / "claims"

    def _arm(spec):
        monkeypatch.setenv("REPRO_FAULT", spec)
        monkeypatch.setenv("REPRO_FAULT_DIR", str(claims))
        return claims

    return _arm


@pytest.mark.parametrize("point", sorted(POINTS))
class TestEveryPoint:
    def test_parse_defaults_and_options(self, point):
        defaults = dict(POINTS[point].options, times=1)
        if point == "checkpoint_write":
            defaults["seq"] = SEQ
        assert faults.parse(_armed(point)) == {point: defaults}
        for key in defaults:
            text, value = VALID[key]
            parsed = faults.parse(_armed(point, **{key: text}))
            assert parsed == {point: dict(defaults, **{key: value})}

    def test_rejections_name_the_registered_points(self, point, arm, monkeypatch):
        bad = [
            f"{point}x",
            _armed(point, nope=1),
            _armed(point, times=1).replace("times=1", "times"),
            _armed(point, times=0),
            _armed(point, times="x"),
            f"{_armed(point)};{_armed(point)}",
        ] + [_armed(point, **{key: INVALID[key]}) for key in POINTS[point].options]
        if point == "checkpoint_write":
            bad.append(point)  # seq is required
        for spec in bad:
            with pytest.raises(ValueError) as excinfo:
                faults.parse(spec)
            assert all(name in str(excinfo.value) for name in POINTS), spec
        arm(_armed(point))
        monkeypatch.delenv("REPRO_FAULT_DIR")
        with pytest.raises(ValueError, match="REPRO_FAULT_DIR") as excinfo:
            _fire(point)
        assert all(name in str(excinfo.value) for name in POINTS)

    def test_times_bounds_firings_across_processes(self, point, arm):
        arm(_armed(point, times=2))
        first, second = _children(point, ["a1", "a2", "a3"], ["b1", "b2", "b3"])
        assert first + second == 2
        assert _children(point, ["c1", "c2"]) == [0]

    def test_a_token_fires_a_point_at_most_once(self, point, arm):
        arm(_armed(point, times=2))
        assert _children(point, ["t", "t"]) == [1]
        assert _children(point, ["t"]) == [0]
        assert _children(point, ["u"]) == [1]

    def test_two_points_keep_separate_budgets(self, point, arm):
        other = "net_drop" if point == "task_raise" else "task_raise"
        arm(f"{_armed(point)};{_armed(other)}")
        assert _children(point, [None]) == [1]
        assert _children(other, [None]) == [1]
        assert _children(point, [None]) == [0]
        assert _children(other, [None]) == [0]

    def test_unset_fault_creates_no_directory(self, point, arm, monkeypatch):
        claims = arm(_armed(point))
        monkeypatch.delenv("REPRO_FAULT")
        assert _fire(point, token="t") == (None, {})
        assert not claims.exists()


@pytest.mark.parametrize("point", ["checkpoint_write", *faults.NET_POINTS])
def test_a_point_fires_only_in_its_armed_context(point, arm):
    if point == "checkpoint_write":
        arm(_armed(point, seq=SEQ + 1))
    else:
        arm(_armed(point, role="worker"))
    assert _children(point, ["t"]) == [0]
