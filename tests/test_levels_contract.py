"""The study levels as a property: whatever ``--levels`` and ``--fine`` text
the two studies are given, they are refused with exit code 2 and a
``configuration error`` before any mesh or gate, or the study gets strictly
increasing levels in [2, MAX_CELLS], each below ``--fine``.

The text is drawn from integers in [-3, 70], as lists with repeats, in any
order, with empty parts and with parts that are no integer.  A ``--fine``
that is no integer is refused the same way, not by argparse's usage text.

A whole command line drawn from the commands, their flags, unknown flags and
values either reaches the first mesh or gate, or is refused the same way.
"""
import contextlib
import io
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import command_flags
from vesselfem import cli, fem3d, verify
from vesselfem.stepper import MAX_CELLS

PART = st.one_of(st.integers(-3, 70).map(str), st.sampled_from(["", "x", "4.0", "1e1", " 8", "nan"]))
LEVELS = st.one_of(
    st.lists(PART, min_size=1, max_size=5).map(",".join),
    st.lists(st.integers(2, MAX_CELLS), min_size=1, max_size=4, unique=True).map(
        lambda ns: ",".join(map(str, sorted(ns)))),
)
FINE = st.one_of(st.integers(-3, 70).map(str), st.sampled_from(["", "x", "16.0"]))


class Reached(Exception):
    """Raised where the first mesh or the source gate would start."""


def _expected(levels, fine):
    """The levels a study should get, or None for a refused draw."""
    try:
        ns = [int(v) for v in levels.split(",")] + ([] if fine is None else [int(fine)])
    except ValueError:
        return None
    ok = all(2 <= n <= MAX_CELLS for n in ns) and all(a < b for a, b in zip(ns, ns[1:]))
    return ns if ok else None


@settings(max_examples=400)
@given(command=st.sampled_from(["manufactured", "diagonal"]), levels=LEVELS, fine=FINE)
@example(command="manufactured", levels="4,16", fine="32")
@example(command="diagonal", levels="3,6", fine="12")
@example(command="diagonal", levels="4,8", fine="8")
@example(command="manufactured", levels="8,8", fine="32")
@example(command="manufactured", levels="4,,8", fine="32")
@example(command="diagonal", levels="4", fine="")
def test_levels_refused_or_passed_on(tmp_path_factory, command, levels, fine):
    out = tmp_path_factory.mktemp("levels") / "out"
    argv = [command, f"--levels={levels}", "--out", str(out)]
    if command == "diagonal":
        argv.append(f"--fine={fine}")
    studied = []

    def reached(*args, **kwargs):
        raise Reached

    def manufactured(levels, *args, run=verify.convergence_study, **kwargs):
        studied.append(list(levels))
        return run(levels, *args, **kwargs)

    def diagonal(problem, coarse_levels, fine_n, *args, run=verify.self_convergence, **kwargs):
        studied.append([*coarse_levels, fine_n])
        return run(problem, coarse_levels, fine_n, *args, **kwargs)

    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(stderr):
        mp.setattr(fem3d, "box_level", reached)
        mp.setattr(verify, "source_gate", reached)
        mp.setattr(verify, "convergence_study", manufactured)
        mp.setattr(verify, "self_convergence", diagonal)
        try:
            code = cli.main(argv)
        except Reached:
            code = None
    expected = _expected(levels, fine if command == "diagonal" else None)
    if code is None:  # the study reached its first mesh or gate with exactly these levels
        assert expected is not None and studied == [expected]
    else:
        assert code == 2
        assert stderr.getvalue().startswith("configuration error: "), stderr.getvalue()
        assert stderr.getvalue().count("\n") == 1
        assert expected is None
    assert not out.exists()


COMMANDS = command_flags(cli.build_parser())
FLAG = st.sampled_from(sorted(set().union(*COMMANDS.values())) + ["--bogus", "-x", "--", "-"])
VALUE = st.sampled_from(["1", "4", "8", "16", "32", "50", "0", "-1", "2.5", "1e2", "4,8", "4,8,16", "x", "nan", "4,x", ""])
ARGV = st.one_of(
    st.lists(st.one_of(st.sampled_from(sorted(COMMANDS)), FLAG, VALUE), max_size=8),
    st.sampled_from(sorted(COMMANDS)).flatmap(lambda command: st.lists(
        st.tuples(st.one_of(st.sampled_from(sorted(COMMANDS[command])), FLAG), VALUE), max_size=3).map(
        lambda pairs: [command, *(token for pair in pairs for token in pair)])),
)


@settings(max_examples=300)
@given(argv=ARGV)
@example(argv=[])
@example(argv=["diagonal", "--bogus"])
@example(argv=["run", "--levels", "4"])
@example(argv=["manufactured", "--levels", "4,8"])
def test_command_line_reaches_work_or_is_refused(tmp_path_factory, argv):
    cwd = tmp_path_factory.mktemp("argv")
    stdout, stderr = io.StringIO(), io.StringIO()

    def reached(*args, **kwargs):
        raise Reached

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        mp.chdir(cwd)
        mp.setattr(fem3d, "box_level", reached)
        mp.setattr(verify, "source_gate", reached)
        try:
            code = cli.main(argv)
        except Reached:
            code = None
    if code is not None:
        assert code == 2
        assert stderr.getvalue().startswith("configuration error: "), stderr.getvalue()
        assert stderr.getvalue().count("\n") == 1
    assert "usage:" not in stdout.getvalue() + stderr.getvalue()
    assert os.listdir(cwd) == []
