"""Differential check: the STD block decoder ≡ the line-by-line parser.

:meth:`StdParser.parse_block` decodes a whole block of canonical
``T<tid>|<op>|<location>`` lines with a few C-level passes and sends any
block holding another shape back to :meth:`StdParser.parse`, line by
line.  The fast path may only change cost: for any lines, the block
decoder (and :func:`iter_std_batches`, built on it) must return the
events the per-line parser returns — same eids, tids, kinds, targets and
types — or raise the same :class:`TraceFormatError` message, line number
included.

Hypothesis mixes canonical lines with every shape the fast path must
either accept identically or refuse: whitespace (``\\t``, ``\\r``,
padding, trailing newlines), comments and blanks, ``T08`` tids and
non-ASCII digits, fork/join targets written ``T5`` or ``5``,
``begin``/``end`` with and without a target, targets holding ``(``,
``)`` or ``|``, and malformed lines.  Block sizes 1, 7 and 4096 are
covered; the 4096 case pads the block with canonical lines so the mixed
lines land inside one full block.
"""

from __future__ import annotations

from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.event import Event
from repro.trace.io import StdParser, TraceFormatError, iter_std, iter_std_batches

OPS = ["r", "w", "acq", "rel"]

tids = st.one_of(
    st.integers(0, 40).map(lambda tid: f"T{tid}"),
    st.sampled_from(["T08", "T007", "T٣", "T1٠", "T５", "t3", "T", "Tx", "3", "T-1"]),
)
targets = st.one_of(
    st.sampled_from(["x", "y", "lock", "v1", "a.b", "x[0]"]),
    st.sampled_from(["a(b", "a)b", "a|b", "(x)", "", " x ", "x y", "é"]),
)
locations = st.one_of(
    st.integers(0, 10_000).map(str),
    st.sampled_from(["f.py:3", "", " ", "a b", "|", "loc\t"]),
)


@st.composite
def op_tokens(draw) -> str:
    kind = draw(st.sampled_from(OPS + ["fork", "join", "begin", "end", "frob"]))
    if kind in ("fork", "join"):
        target = draw(
            st.sampled_from(["T5", "5", "t12", "T08", " T3 ", "Tx", "", "5.0", "T٣"])
        )
        return f"{kind}({target})"
    if kind in ("begin", "end"):
        return draw(st.sampled_from([kind, f"{kind}()", f"{kind}(x)", f"{kind} "]))
    return f"{kind}({draw(targets)})"


@st.composite
def accepted_lines(draw) -> str:
    """Lines the fast path takes: canonical up to padding, tid spelling,
    inner target spaces and the line ending."""
    pad = st.sampled_from(["", "", " ", "\t", "\r"])
    tid = draw(
        st.one_of(
            st.integers(0, 40).map(lambda tid: f"T{tid}"),
            st.sampled_from(["T08", "T٣"]),
        )
    )
    op = draw(
        st.one_of(
            st.builds(
                lambda kind, target: f"{kind}({target})",
                st.sampled_from(OPS),
                st.sampled_from(["x", "y", "é", " x ", "a.b"]),
            ),
            st.sampled_from(
                ["fork(T5)", "join(5)", "fork(t12)", "begin", "end", "begin(x)", "end()"]
            ),
        )
    )
    location = draw(st.sampled_from(["0", "17", "f.py:3", " 9"]))
    ending = draw(st.sampled_from(["", "\n", "\r\n"]))
    return f"{draw(pad)}{tid}{draw(pad)}|{op}|{location}{draw(pad)}{ending}"


@st.composite
def std_lines(draw) -> str:
    shape = draw(st.sampled_from(["accepted"] * 8 + ["canonical", "spaced", "short", "noise"]))
    if shape == "accepted":
        return draw(accepted_lines())
    if shape == "noise":
        return draw(
            st.sampled_from(
                [
                    "",
                    "   ",
                    "\t",
                    "# a comment",
                    "#T1|w(x)|0",
                    "garbage",
                    "T1|w(x)|0|extra",
                    "T1||0",
                    "|w(x)|0",
                    "T1|w(x)|0\nT2|w(y)|1",
                    "T1|w(x)",
                    "T1|T2|r(y)|loc",
                    "\r",
                ]
            )
        )
    tid = draw(tids)
    op = draw(op_tokens())
    if shape == "short":
        return f"{tid}|{op}"
    line = f"{tid}|{op}|{draw(locations)}"
    if shape == "spaced":
        pad = st.sampled_from(["", " ", "\t", "  ", "\r"])
        location = line.rsplit("|", 1)[1]
        line = f"{draw(pad)}{tid}{draw(pad)}|{draw(pad)}{op}{draw(pad)}|{location}{draw(pad)}"
    return line + draw(st.sampled_from(["", "", "\n", "\r\n"]))


def canonical_lines(count: int) -> List[str]:
    return [f"T{index % 7}|{OPS[index % 4]}(x{index % 13})|{index}" for index in range(count)]


def per_line(lines: List[str], first_eid: int, first_line_number: Optional[int]):
    """The reference: :meth:`StdParser.parse` on each line, as the decoders did."""
    parser = StdParser()
    events: List[Event] = []
    eid = first_eid
    for offset, line in enumerate(lines):
        number = eid + 1 if first_line_number is None else first_line_number + offset
        event = parser.parse(line, eid, number)
        if event is not None:
            events.append(event)
            eid += 1
    return events


def outcome(decode):
    try:
        return "events", decode()
    except TraceFormatError as error:
        return "error", str(error)


def assert_same(expected, actual):
    assert actual[0] == expected[0], (expected, actual)
    if expected[0] == "error":
        assert actual[1] == expected[1]
        return
    assert actual[1] == expected[1]
    for want, got in zip(expected[1], actual[1]):
        assert type(got) is Event
        assert [type(field) for field in got] == [type(field) for field in want]


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(std_lines(), max_size=12),
    first_eid=st.integers(0, 50),
    first_line_number=st.one_of(st.none(), st.integers(1, 50)),
)
def test_parse_block_matches_per_line_parse(lines, first_eid, first_line_number):
    expected = outcome(lambda: per_line(lines, first_eid, first_line_number))
    actual = outcome(lambda: StdParser().parse_block(lines, first_eid, first_line_number))
    assert_same(expected, actual)


def assert_batches_match(lines, batch_size):
    expected = outcome(lambda: list(iter_std(lines)))

    def batched():
        batches = list(iter_std_batches(lines, batch_size=batch_size))
        assert all(len(batch) == batch_size for batch in batches[:-1])
        return [event for batch in batches for event in batch]

    assert_same(expected, outcome(batched))


@pytest.mark.parametrize("batch_size", [1, 7])
@settings(max_examples=60, deadline=None)
@given(lines=st.lists(std_lines(), max_size=24))
def test_small_batches_match_line_by_line_decoding(batch_size, lines):
    assert_batches_match(lines, batch_size)


@settings(max_examples=20, deadline=None)
@given(mixed=st.lists(std_lines(), max_size=12), split=st.integers(0, 12))
def test_full_blocks_match_line_by_line_decoding(mixed, split):
    # A canonical prefix that fills all but a few lines of the first
    # 4096-line block puts the mixed lines inside it; a canonical tail
    # follows them.
    prefix = canonical_lines(4096 - split)
    assert_batches_match(prefix + mixed + canonical_lines(2051), 4096)


def test_canonical_blocks_take_the_fast_path():
    lines = canonical_lines(100)
    parser = StdParser()
    tids, ops = parser._canonical_columns(lines)
    assert [(tid, *op) for tid, op in zip(tids, ops)] == [
        (event.tid, event.kind, event.target) for event in per_line(lines, 0, 1)
    ]
    assert parser._canonical_columns(lines[:10] + ["  T1|w(x)|0"]) is not None
    assert parser._canonical_columns(lines[:10] + [""]) is None
    assert parser._canonical_columns(["T1|w(x)", "T1|T2|r(y)|loc"]) is None


@pytest.mark.parametrize(
    "lines",
    [
        # Field counts off by one on two lines, so the block still splits
        # into 3 fields per line; each case defeats all shape checks but one.
        ["T1|w(x)", "T1|T2|r(y)|loc"],
        ["T1|w(x)", "T2|T3|w(y)|a b"],
        ["T1|w(x)", "T2|T3|w(y)|a\nb"],
        # Empty or two-token locations, paired so the token count adds up.
        ["T1|w(x)|", "T2|w(y)|a b"],
        ["T1|w(x)|a b", "T2|w(y)|"],
        ["T1|w(x)|a b"],
    ],
)
def test_every_shape_check_refuses_what_the_parser_refuses(lines):
    expected = outcome(lambda: per_line(lines, 0, 1))
    assert expected[0] == "error"
    assert StdParser()._canonical_columns(lines) is None
    assert_same(expected, outcome(lambda: StdParser().parse_block(lines)))
