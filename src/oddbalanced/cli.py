"""Batch command-line front end: argv, output formats, streams and exit
codes.  The layers it calls own their limits, their input formats and
their refusals.

Every verification and report is a subcommand with machine-readable output
(CSV or JSON) and a deterministic evaluation order, so identical invocations
produce identical bytes.  Exit codes: 0 all checks passed, 1 a threshold
check failed (a JSON failure record goes to stderr), 2 usage error (a
one-line message goes to stderr).

Each command runs in its layer: COMMANDS names the module, and dispatch
imports it and calls its cmd_<command>(config), which returns (rows,
header, failure): the output's rows and their header (for enumerate its
text chunks, and no header), and the detail of its failure record when a
check failed (None or empty when every check passed).  The entry keeps
the command's pass rule beside the limit it reads, and the rules that tie
two values together (a < c, an even c only with --allow-even).  dispatch
alone formats the rows, writes them to --output or stdout (through
_write, as --help writes its text), then the failure record to stderr,
and returns the exit code.  Every refusal is one InputError, from the
parser, an option's domain, _write (an --output or stdout that cannot
take every byte) or a layer; main alone turns it, or a value that leaves
the float range, into the one-line message and exit 2.  stderr is
written best effort.

The cell rule: every cell a command prints is a number (an int, a float
or a complex), an nstr text, "", "true" or "false" (asymptotics._fmt),
or a label the program builds (a law's name, a z=...;tau=... point), and
every header key is an identifier.  No text from outside reaches a row,
since the --grid reader admits finite numbers only.  So no cell or key
holds a comma, a quote, a backslash, a control or a non-ASCII character,
and _rows_text writes both formats by one template, each cell bare in
CSV and in plain quotes in JSON, with nothing to escape.

Each option's range has one home, the domain column of COMMANDS: dispatch
checks every value against it before the entry runs, and --help prints
it.  A list option's domain holds its least length too.  A default that
a layer chooses (--checkpoints) is None in the table, and only --help
imports that layer to print it.

Each command starts in a fresh process, so start-up is part of its cost,
and where no bytecode is cached every run compiles this module from
source.  So it holds the front end alone, and its import loads no other
module of the package nor anything the interpreter has not loaded: the
argv parser is a table (COMMANDS), not argparse.  No layer imports it:
under -m it runs as __main__, and an import would compile it again.  The
exact commands load genfunc (the reports also asymptotics, never
modular), enumerate loads enumerator, and the numeric commands load
modular with transforms, decomposition or asymptotics, never the exact
engine.  json loads only for a --grid file or a failure record, never
for an output format, decimal only for asym-report's main terms, and no
command loads a third-party package or the kernels.

The end of the process is part of the cost too.  run, the entry of
`python -m oddbalanced.cli` and of the `oddbalanced` script, ends the
process with os._exit(main's code).  That skips the interpreter's
finalization, two full garbage collections over every live object and
the teardown of every module, which nothing here needs: _write flushes
stdout inside the try that makes a failed write a usage error, _stderr
flushes each line it writes, an --output file is closed by its with
block, and no atexit handler is registered.  main(argv) returns its code
and never ends the process, so in-process callers see no change.

The argv grammar: a command, then its options in any order, each written
--flag value or --flag=value; --allow-even alone takes no value.  Every
command takes --output, and every command but enumerate, which writes
JSON lines only, takes --format; any other option belongs to the
commands that read it (--precision only to asym-report).  A value
given as a separate word may not start with '-' unless it is a negative
number (write --checkpoints=-5,600).  Flags are spelled in full: no
abbreviation is accepted.  A flag given twice keeps its last value, and a
list value keeps a repeated entry once, at its first place.  -h or --help
prints the commands, or after a command its options with their defaults,
each written as it would be typed, and their domains.
"""

import math
import os
import sys
from itertools import chain

from . import InputError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class RunConfig:
    """The settings of one run, named as COMMANDS stores them.
    RunConfig(command, **settings) takes the command's defaults from
    COMMANDS and then the given settings, so every default has its one
    home in the table, or in the layer where the table holds None."""

    def __init__(self, command, **settings):
        self.command = command
        for dest, _, default, _ in _options(command).values():
            setattr(self, dest, default)
        vars(self).update(settings)


def _rows_text(rows, header, config):
    """The text of rows, tuples of cells in header order, in the
    configured format: a head, one template per row joined by a
    separator, and a tail, every cell written as its str (for a float or
    complex its shortest round-trip repr) by one C-level format.  By the
    cell rule (module docstring) nothing needs quoting or escaping: the
    JSON rows are the layout of json.dumps(payload, indent=1), each cell
    a str in plain quotes, without loading json."""
    rows = list(rows)
    if config.fmt == "json":
        # json.dumps writes an empty list as []
        head, sep, tail = ("[\n", ",\n", "\n]\n") if rows else ("[]\n", "", "")
        row = " {\n" + ",\n".join(f'  "{k}": "%s"' for k in header) + "\n }"
    else:
        head, sep, tail = ",".join(header) + "\n", "", ""
        row = ",".join(["%s"] * len(header)) + "\n"
    return head + sep.join([row] * len(rows)) % tuple(chain.from_iterable(rows)) + tail


# the digits of asym-report's main terms and ratios; each main term is
# computed to this many digits plus decimal's guard digits, and its cost
# grows with them
MAX_PRECISION = 10_000
# enumerate holds its whole text in memory, about 78 bytes a line at the
# top: --n 36 is v(36) = 747 672 lines, 58 MB of text, while --n 50 would
# be 16 585 564 lines, over 1 GB
MAX_ENUMERATE_N = 36
# an expansion mod c reads its c//2 + 1 classes back out of one packed
# integer per power of q, each read a shift of that integer, so O(c^2)
# words a power: at c = 1000 the packed-size budget admits n to 2308,
# where each power packs 501 fields of 29 bytes
MAX_MODULUS = 1000


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def dispatch(config):
    """Check every option's value against its domain, run the command's
    entry in its layer, write its text to --output (or stdout) and return
    the exit code: 1, after a JSON failure record on stderr, when a check
    failed, else 0."""
    for flag, (dest, _, _, domain) in _options(config.command).items():
        value = getattr(config, dest)
        if domain and value is not None and not domain[1](value):
            raise InputError(f"{flag} must be {domain[0]}, got {_typed(value)}")
    from importlib import import_module

    command = config.command
    layer = import_module("." + COMMANDS[command][2], __package__)
    # the entry is looked up when it runs, so a wrapper put on it sees the call
    rows, header, failure = getattr(layer, "cmd_" + command.replace("-", "_"))(config)
    _write(rows if header is None else [_rows_text(rows, header, config)], config.output)
    if not failure:
        return EXIT_OK
    import json

    record = {"status": "fail", "check": command, "detail": failure}
    _stderr(json.dumps(record) + "\n")
    return EXIT_CHECK_FAILED


def _write(chunks, output=None):
    """Write the list of texts chunks to the file output, or to stdout
    where output is None, and flush it; a target that cannot take every
    byte raises InputError.  The flush is made here, where a failure is a
    usage error, because run ends the process without the interpreter's
    flush at exit."""
    try:
        if output is not None:
            with open(output, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        elif sys.stdout is None:  # the process started with fd 1 closed
            raise OSError("it is closed")
        elif not hasattr(sys.stdout, "buffer"):  # a text stream in process
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            # through the binary stream, looping on its count: under
            # python -u it is the raw file, whose write may be short (a
            # reader that closed early), and the text stream would drop
            # the rest unseen
            stdout = sys.stdout
            stdout.flush()
            for chunk in chunks:
                data = memoryview(chunk.encode(stdout.encoding, stdout.errors))
                while data:
                    written = stdout.buffer.write(data)
                    if written is None:  # a non-blocking fd that is full
                        raise OSError("it would block")
                    data = data[written:]
            stdout.buffer.flush()
    except OSError as exc:
        target = "stdout" if output is None else f"--output {output}"
        raise InputError(f"cannot write {target}: {exc.strerror or exc}") from exc


def _stderr(text):
    """Write and flush text to stderr, best effort: a stderr that is
    closed (None) or full loses the text, not the exit code."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
            sys.stderr.flush()
        except OSError:
            pass


def _number_list(kind):
    """Parser of a comma-separated list; a repeated value is kept once, at
    its first place, so that no row is printed twice."""
    def parse(text):
        try:
            return tuple(dict.fromkeys(kind(x) for x in text.split(",") if x))
        except ValueError:
            raise ValueError(f"expected comma-separated {kind.__name__}s, "
                             f"got {text!r}") from None
    return parse


def _format(text):
    if text not in ("csv", "json"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'csv', 'json')")
    return text


_int_list = _number_list(int)
_float_list = _number_list(float)


def _within(lo, hi=math.inf):
    """The domain lo <= x <= hi; NaN is outside every one."""
    return (f"{lo}..{hi}" if hi < math.inf else f">= {lo}"), lambda x: lo <= x <= hi


def _list_of(entry, least=1):
    """The domain of a list option: at least `least` values, each in the
    domain entry.  The parser keeps a repeated value once, so the values
    counted are distinct."""
    text, test = entry
    return (f"{least} or more distinct values, each {text}",
            lambda values: len(values) >= least and all(map(test, values)))


# Every command's help line, options, {flag: (dest, parse, default,
# domain)}, and layer, the module whose cmd_<command> runs it.  A parse of
# None marks a bare flag, which sets True.  A default of None is no value,
# or one the layer chooses (--checkpoints).  A domain is None or (text,
# test): dispatch refuses a value that fails the test, a list value as a
# whole (_list_of).  _COMMON follows every command's own options, but for
# a flag the command maps to None (enumerate's --format).
_COMMON = {
    "--format": ("fmt", _format, "csv", None),
    "--output": ("output", str, None, None),
}
COMMANDS = {
    "expand": ("dump the exact rank table v(m,n) (the 2^28-bit budget "
               "admits --n-max to 6373)",
               {"--n-max": ("n_max", int, 10, _within(0))}, "genfunc"),
    "enumerate": ("list all sequences of size 2n+2 as JSON lines",
                  {"--n": ("n", int, 5, _within(0, MAX_ENUMERATE_N)),
                   "--format": None}, "enumerator"),
    "verify-transforms": ("residual table for the transformation laws", {
        "--seed": ("seed", int, 20260810, None)}, "transforms"),
    "verify-decomposition": (
        "residuals of the three-term decomposition identity (--grid is "
        '"default" or a JSON file of {z_re, z_im, tau_re, tau_im, order})', {
            "--grid": ("grid", str, "default", None)}, "decomposition"),
    "asym-report": (
        "exact counts vs main term at checkpoints (--allow-even tabulates an "
        "even c without the main term; the 2^28-bit budget admits checkpoints "
        "to 151145 at c = 1 and to 2308 at c = 1000)", {
            "--a": ("residue", int, 0, _within(0)),
            "--c": ("modulus", int, 1, _within(1, MAX_MODULUS)),
            "--checkpoints": ("checkpoints", _int_list, None, _list_of(_within(1))),
            "--allow-even": ("allow_even", None, False, None),
            "--precision": ("precision", int, 50, _within(30, MAX_PRECISION))}, "asymptotics"),
    "equidistribution": ("max_a |c v(a,c;n)/v(n) - 1| at checkpoints", {
        "--moduli": ("moduli", _int_list, (3, 5, 7), _list_of(_within(2, MAX_MODULUS))),
        "--checkpoints": ("checkpoints", _int_list, None, _list_of(_within(1), 2))},
        "asymptotics"),
    "logconcavity-scan": (
        "product inequalities and the overpartition bound (the 2^28-bit "
        "budget admits --n-max to 151144 at c = 1)", {
        "--a": ("residue", int, 0, _within(0)),
        "--c": ("modulus", int, 1, _within(1, MAX_MODULUS)),
        "--n-max": ("n_max", int, 600, _within(1))}, "asymptotics"),
    # an odd c >= 3 puts no z = j/c at 1/4, 1/2 or 3/4
    "lemma-ratios": ("series value over interval main term at z=j/c", {
        "--moduli": ("moduli", _int_list, (3, 5), _list_of((
            f"odd, 3..{MAX_MODULUS}", lambda c: 3 <= c <= MAX_MODULUS and c % 2))),
        "--t-values": ("t_values", _float_list, (0.1, 0.05, 0.025), _list_of((
            "positive and finite", lambda t: 0 < t < math.inf), 2))}, "asymptotics"),
}


def _options(command):
    own = COMMANDS[command][1]
    return {**{flag: option for flag, option in own.items() if option},
            **{flag: option for flag, option in _COMMON.items() if flag not in own}}


def _typed(value):
    """A value as it is typed on the command line ("" for an empty list)."""
    return (",".join(map(str, value)) or '""') if isinstance(value, tuple) else str(value)


def _default_text(command, flag, parse, default):
    """An option's default for --help: as it is typed, or in words where
    the default is no value."""
    if parse is None:
        return "(a bare flag)"
    if default is not None:
        return _typed(default)
    if flag == "--checkpoints":  # asymptotics' own, for asym-report chosen by --c
        from .asymptotics import RESIDUE_CHECKPOINTS, TOTAL_CHECKPOINTS

        return (_typed(RESIDUE_CHECKPOINTS) if command == "equidistribution" else
                f"{_typed(TOTAL_CHECKPOINTS)} at --c 1, else {_typed(RESIDUE_CHECKPOINTS)}")
    return "(stdout)"


def _help(command=None):
    """Print the commands, or one command's options with their defaults
    and domains, and exit 0."""
    usage = f"usage: oddbalanced {command or '<command>'} [--flag value | --flag=value ...]"
    if command is None:
        lines = [usage, "commands:"]
        lines += [f"  {name:22}{text}" for name, (text, _, _) in COMMANDS.items()]
        lines.append("every command takes --output FILE (default stdout); all but "
                     "enumerate take --format csv|json")
    else:
        lines = [usage, COMMANDS[command][0], "options, their defaults and domains:"]
        lines += [f"  {flag:16}{_default_text(command, flag, parse, default)}"
                  + (f" ({domain[0]})" if domain else "")
                  for flag, (_, parse, default, domain) in _options(command).items()]
    _write(["\n".join(lines) + "\n"])
    raise SystemExit(EXIT_OK)


def _is_flag(word):
    """Whether the word after a flag is a flag, not the flag's value.  As
    argparse reads it: a word that starts with '-' is a flag unless it is
    '-' alone, a negative number or holds a space."""
    if word[:1] != "-" or word == "-" or " " in word:
        return False
    whole, dot, fraction = word[1:].partition(".")
    if dot:
        return not (fraction.isdecimal() and (whole.isdecimal() or not whole))
    return not whole.isdecimal()


def parse_args(argv):
    """The RunConfig of argv: a command, then its options, each --flag
    value or --flag=value (--allow-even takes no value); a flag given twice
    keeps its last value.  A word it cannot read raises InputError; -h or
    --help prints help and exits 0."""
    if not argv or argv[0] in ("-h", "--help"):
        if argv:
            _help()
        raise InputError("the following arguments are required: command")
    command = argv[0]
    if command not in COMMANDS:
        raise InputError(f"argument command: invalid choice: {command!r} "
                         f"(choose from {', '.join(map(repr, COMMANDS))})")
    options = _options(command)
    config = RunConfig(command)
    unknown = []
    words = iter(argv[1:])
    for word in words:
        if word in ("-h", "--help"):
            _help(command)
        flag, eq, value = word.partition("=")
        if flag not in options:
            unknown.append(word)
            continue
        dest, parse, _, _ = options[flag]
        if parse is None:
            if eq:
                raise InputError(f"argument {flag}: ignored explicit argument {value!r}")
            value = True
        else:
            if not eq:
                value = next(words, None)
                if value is None or _is_flag(value):
                    raise InputError(f"argument {flag}: expected one argument")
            try:
                value = parse(value)
            except ValueError as exc:
                # int's and float's own messages, reworded as argparse did
                reason = (f"invalid {parse.__name__} value: {value!r}"
                          if parse in (int, float) else exc)
                raise InputError(f"argument {flag}: {reason}") from None
        setattr(config, dest, value)
    if unknown:
        raise InputError(f"unrecognized arguments: {' '.join(unknown)}")
    return config


def main(argv=None):
    """Parse argv and dispatch it; the one place that turns a refusal into
    its stderr line and exit 2."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        return dispatch(parse_args(argv))
    except (OverflowError, ValueError) as exc:
        # past an InputError, math's "math range error" or "math domain error"
        reason = exc if isinstance(exc, InputError) else \
            f"a value leaves the float range ({exc})"
        command = f" {argv[0]}" if argv and argv[0] in COMMANDS else ""
        _stderr(f"oddbalanced{command}: error: {reason}\n")
        return EXIT_USAGE


def run():
    """The process entry of `python -m oddbalanced.cli` and of the
    `oddbalanced` script: end the process with main's exit code, skipping
    the interpreter's teardown (see the module docstring).  --help's
    SystemExit and an uncaught exception leave as they would without it."""
    os._exit(main())


if __name__ == "__main__":
    run()
