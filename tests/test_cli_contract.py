"""The CLI's exit-code contract, fuzzed from its own parser.

Every argv is built from ``build_parser()``'s subcommands and options, so a
new command or flag is covered without an edit here.  Values come from a
small grammar (a valid small value, 0, -1, nan, inf, a non-number, the empty
string), input files from a pool of valid, malformed and mismatched files,
and output paths from a pool that never names an input.  Whatever the argv,
``main`` must return 0, 1 or 2 and let no exception escape.  Sizes stay at 4
or below, so no case does real work at scale; running out of memory is
tested by making the graph build raise MemoryError, never by allocating.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rainbowconn import graphs as graphs_mod
from rainbowconn.cli import build_parser, main

# input options and the pool files that suit them; every other pool file
# is a bad value for them
GOOD_INPUTS = {"infile": ["c6.el", "p4.el"], "coloring": ["c6.col", "p4.col"],
               "config": ["config.cfg"]}
OUTPUT_DESTS = ("out", "witness_out")
BAD = ["0", "-1", "nan", "inf", "many", ""]
SMALL = {
    int: ["1", "2", "3", "4"],
    float: ["0.5", "1", "2.5"],
    # untyped options: experiment modes and n-value lists
    None: ["thm1", "regular", "brute", "lemcol_stress", "4", "3,4"],
}

C6 = "6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"
INPUTS = {
    "c6.el": C6,
    "p4.el": "4 3\n0 1\n1 2\n2 3\n",
    "c6.col": "6 3\n0 0 random\n1 0 random\n2 1 random\n3 2 random\n4 1 random\n5 0 random\n",
    "p4.col": "3 3\n0 0 random\n1 1 random\n2 2 random\n",
    "mono6.col": "6 1\n" + "".join(f"{i} 0 random\n" for i in range(6)),
    "empty.txt": "",
    "header_only.el": "6 6\n",
    "wrong_count.el": "6 6\n0 1\n1 2\n",
    "wrong_count.col": "6 3\n0 0 random\n1 1 random\n",
    "not_sorted.el": "3 2\n1 2\n0 1\n",
    "config.cfg": "mode=brute\nn_values=4\np=0.5\ntrials=1\n",
    "bad_config.cfg": "mode=brute\nno equals sign here\n",
}


def leaf_commands(parser, path=()):
    """(subcommand path, parser) for every command that takes no subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from leaf_commands(child, path + (name,))


COMMANDS = list(leaf_commands(build_parser()))


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("inputs")
    for name, text in INPUTS.items():
        (inputs / name).write_text(text)
    (inputs / "not_utf8.el").write_bytes(b"\xff\xfe 1\n0 1\n")
    (inputs / "a_directory").mkdir()
    files = sorted(str(p) for p in inputs.iterdir()) + [str(inputs / "missing.el")]
    outputs = tmp_path_factory.mktemp("outputs")
    (outputs / "a_directory").mkdir()
    outs = [str(outputs / "result.txt"), str(outputs / "a_directory"),
            str(outputs / "no_such_dir" / "result.txt"), ""]
    return files, outs, outputs


def values_for(action, files, outs):
    """One option's value: a suitable one, or one time in six a bad one."""
    if action.nargs == 0:
        return st.just([])
    if action.dest in GOOD_INPUTS:
        good = [f for f in files if f.rsplit("/", 1)[-1] in GOOD_INPUTS[action.dest]]
        bad = [f for f in files if f not in good]
    elif action.dest in OUTPUT_DESTS:
        good, bad = outs[:1], outs[1:]
    elif action.choices is not None:
        good, bad = [str(choice) for choice in action.choices], ["none_of_these"]
    else:
        good, bad = SMALL.get(action.type, SMALL[None]), BAD
    return st.integers(min_value=0, max_value=5).flatmap(
        lambda i: st.sampled_from(good if i else bad)).map(lambda value: [value])


def given_options(draw, parser):
    """The options to pass: each required one mostly, each other one half
    the time, and at most one of a mutually exclusive group mostly."""
    exclusive = {a: group for group in parser._mutually_exclusive_groups
                 for a in group._group_actions}
    chosen = {group: draw(st.sampled_from(group._group_actions))
              for group in parser._mutually_exclusive_groups}
    for action in parser._actions:
        if not action.option_strings or isinstance(action, argparse._HelpAction):
            continue
        if action in exclusive:
            odds = 9 if chosen[exclusive[action]] is action else 1
        else:
            odds = 9 if action.required else 5
        if draw(st.integers(min_value=0, max_value=9)) < odds:
            yield action


@st.composite
def argvs(draw, files, outs):
    path, parser = draw(st.sampled_from(COMMANDS))
    argv = list(path)
    for action in parser._actions:
        if not action.option_strings:
            argv += draw(values_for(action, files, outs))
    for action in given_options(draw, parser):
        argv += [action.option_strings[0]] + draw(values_for(action, files, outs))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))), "--no-such-flag")
    return argv


def run(argv, out_dir, fail_to_allocate=False):
    """main(argv) from out_dir, with stdout and stderr captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(out_dir)  # a command's default output lands here
        mp.delenv("RAINBOW_SEED", raising=False)
        if fail_to_allocate:
            def refuse(*args, **kwargs):
                raise MemoryError("Unable to allocate 22.4 GiB")

            mp.setattr(graphs_mod, "_build_csr", refuse)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def test_every_command_is_drawn():
    # every top-level command, nested subcommands walked to their leaves
    paths = {path for path, _ in COMMANDS}
    top = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {path[0] for path in paths} == set(top.choices)
    assert {("gen", "gnp"), ("gen", "regular"), ("color", "thm1"), ("verify",)} <= paths


@given(data=st.data())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_exit_code_is_0_1_or_2(pools, data):
    files, outs, out_dir = pools
    argv = data.draw(argvs(files, outs), label="argv")
    fail_to_allocate = data.draw(st.integers(min_value=0, max_value=9), label="oom") == 0
    code, _, err = run(argv, out_dir, fail_to_allocate)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 1 and err:
        assert err.startswith("error: ") or err == "unresolved within the palette cap\n", err


@pytest.mark.parametrize("argv", [
    ["stats", "--in", "c6.el"],
    ["verify", "exact", "--in", "c6.el", "--coloring", "c6.col"],
    ["witness", "--in", "c6.el", "--coloring", "c6.col", "--x", "0", "--y", "3",
     "--k", "1", "--gamma", "1", "--d", "2"],
], ids=["stats", "verify", "witness"])
def test_out_of_memory_is_one_error_line(pools, argv):
    files, _, out_dir = pools
    by_name = {path.rsplit("/", 1)[-1]: path for path in files}
    argv = [by_name.get(arg, arg) for arg in argv]
    assert run(argv, out_dir)[0] in (0, 1)
    code, out, err = run(argv, out_dir, fail_to_allocate=True)
    assert (code, out, err) == (1, "", "error: out of memory: Unable to allocate 22.4 GiB\n")
