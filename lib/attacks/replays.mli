(** The §3.3 / §4.3 attacks re-expressed as canonical oracle traces.

    Each attack the [Attacks] module reproduces imperatively is also
    expressible as a handful of {!Oracle.Op} lines — the same primitive
    the fuzzing oracle discovers them with. Keeping both forms lets the
    test suite assert they agree: for every mode, the hand-written
    attack succeeds iff its oracle replay produces the expected
    violation class. The traces here are the "known answers" the CI
    oracle-smoke job greps for, and double as minimal regression inputs
    for [snic_cli oracle --replay]. *)

type replay = {
  name : string;
  paper_ref : string;  (** which section/attack of the paper this is *)
  ops : Oracle.Op.t list;
  expected : Oracle.Refmodel.cls;
      (** the violation class this trace must produce on a vulnerable
          mode, and must not produce on S-NIC *)
}

(** The canonical set: one replay per violation class the oracle
    knows how to report (packet corruption, ruleset stealing,
    accelerator hijack, NIC-OS snooping, DMA exfiltration, scrub
    residue, stale translation). *)
val all : replay list

val find : string -> replay option

(** [reproduces mode r] replays [r.ops] on a fresh machine in [mode]
    and reports whether a violation of class [r.expected] fired. *)
val reproduces : Nicsim.Machine.mode -> replay -> bool
