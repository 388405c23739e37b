(** Printer for the [.xta]-style textual model format.

    The output is accepted verbatim by {!Parse.network}, and
    parse-then-print is a fixpoint; both are checked by the test suite.
    The grammar is UPPAAL-flavoured.  This is the literal output for a
    small two-clock network:

    {v
network tiny;

clock x,
y;
int[0,5] n = 0;
int[0,9] m = 0;
broadcast chan req;
chan start;

process Pump {
  state
    Idle,
    Prep { x <= 500 },
    Ack;
  commit Ack;
  init Idle;
  trans
    Idle -> Prep { sync req?; reset x,
  y; },
    Prep -> Ack { guard x >= 250; when n == 0; sync start!; assign n := 1,
  m := (n + 2); },
    Ack -> Idle { };
}
    v}

    Every comma of a clock, reset, assign, commit or urgent list is
    followed by a line break at the enclosing block's indentation
    (column 0 at top level and in a process body, column 2 inside a
    [trans] item); nothing else wraps, however long the line.  These
    breaks are part of the canonical text that [Store.Key] digests
    into store keys and snapshot fingerprints: reformatting them is a
    key-schema change. *)

val to_string : Ta.Model.network -> string
