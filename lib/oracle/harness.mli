(** Differential execution harness: one machine, one flat model, one op
    at a time.

    The harness owns a {!Nicsim.Machine} in the campaign's mode (S-NIC
    mode additionally gets the trusted-instruction state of
    {!Snic.Instructions}; commodity modes get a manager that mimics
    commodity firmware — no scrub on teardown, cores recycled lazily,
    accelerator MMIO left writable). Each slot holds at most one live
    tenant with a dedicated core, a private memory region filled with a
    recognizable secret, an optional DPI cluster, a host DMA window and
    optionally a packet-switch rule.

    [step] executes one {!Op.t} against the machine, predicts the
    outcome with {!Refmodel}, and files {!Refmodel.violation}s for
    every disagreement or isolation breach. Ops that do not apply to the
    current slot population (teardown of an empty slot, a read issued by
    a dead actor, ...) are skipped deterministically — the property that
    makes any subsequence of a trace replayable. *)

type t

(** [create ~mode ~slots] boots a fresh machine. [slots] must be in
    [1..8] (each slot gets its own core and DMA bank). *)
val create : mode:Nicsim.Machine.mode -> slots:int -> t

(** Execute one op; any violations it provokes are appended. *)
val step : t -> Op.t -> unit

(** [step_batch t ops ~pos ~len] interprets the slice
    [ops.(pos) .. ops.(pos + len - 1)] in order — semantically identical
    to [len] calls of {!step}, but the dispatch loop is chunked so the
    campaign driver amortizes per-op overhead ([Par.Batch.iter_slices]
    picks the slice boundaries).  Raises [Invalid_argument] when the
    slice falls outside [ops]. *)
val step_batch : t -> Op.t array -> pos:int -> len:int -> unit

(** Ops that actually ran / were skipped as inapplicable. *)
val executed : t -> int

val skipped : t -> int

(** Violations so far, in execution order. *)
val violations : t -> Refmodel.violation list

(** [secret ~slot ~launches ~len] is the image a tenant launched into
    [slot] after [launches] earlier launches is filled with: ['A'..'Z']
    repeating, rotated by [slot * 7 + launches * 13]. *)
val secret : slot:int -> launches:int -> len:int -> string

(** [host_pattern ~slot ~launches] fills the slot's 16 KB host DMA
    window the same way: ['a'..'z'] rotated by [slot + launches * 5]. *)
val host_pattern : slot:int -> launches:int -> string
