(** Per-VPP packet schedulers.

    A virtual packet pipeline's configuration names "the desired packet
    scheduling algorithm" (§4.4, citing PIFO- and Loom-style programmable
    schedulers). The scheduler orders the packets queued for one NF across
    its flows. Four classic disciplines are provided; the choice is part
    of the function's measured configuration. *)

type policy =
  | Fifo
  | Drr of { quantum : int } (* deficit round robin, byte quantum *)
  | Priority of { levels : int } (* strict priority, 0 = highest *)
  | Wfq (* weighted fair queueing by flow weight *)

val policy_name : policy -> string

(** Policy of a descriptor: its flow key, its size in bytes, and
    discipline-specific class/weight. *)
type meta = {
  flow : int; (* flow key (hash); one queue per flow for DRR/WFQ *)
  bytes : int;
  level : int; (* Priority: class (0 = highest); ignored otherwise *)
  weight : int; (* Wfq: flow weight (>=1); ignored otherwise *)
}

type 'a t

val create : policy -> 'a t

(** The discipline this scheduler was created with. *)
val policy : 'a t -> policy

(** [set_sink t sink ~track] emits a [drr_quantum] instant (and bumps the
    quantum-switch counter) each time DRR refills a flow's deficit and
    rotates service to the next flow.  Other disciplines emit nothing. *)
val set_sink : 'a t -> Obs.sink -> track:int -> unit

val enqueue : 'a t -> meta -> 'a -> unit

(** [dequeue t] picks the next descriptor per the discipline. *)
val dequeue : 'a t -> 'a option

val length : 'a t -> int
val is_empty : 'a t -> bool

(** Drain everything, in service order. *)
val drain : 'a t -> 'a list

(** Apply [f] to every queued element (used to recycle buffers when a
    pipeline is torn down). *)
val iter : ('a -> unit) -> 'a t -> unit

(** Two-stage hierarchical transmit scheduler (the SR-IOV VF datapath).

    Stage 1 is a weighted deficit round robin across integer class keys
    (one class per virtual function, weight = the VF's share); stage 2 is
    an ordinary single-stage scheduler per class (by default the per-flow
    DRR above), so each VF keeps its own flow ordering while the classes
    split link bytes in proportion to their weights.

    The stage-1 discipline is byte-based DRR with one refill per visit:
    a class in debt receives [quantum * weight] credit and, if still in
    debt, rotates to the back.  A class that empties forfeits leftover
    credit, so long-run byte shares of backlogged classes converge to
    their weights (within one refill plus one max-size packet) and no
    backlogged class can be starved. *)
module Hier : sig
  type 'a t

  (** [create ~quantum ()] — [quantum] is the stage-1 byte credit per
      weight unit per rotation visit; stage 2 is per-flow
      [Drr {quantum = 1024}] inside each class. *)
  val create : quantum:int -> unit -> 'a t

  (** Emits a [wrr_quantum] instant (and bumps the quantum-switch
      counter) on every stage-1 refill. *)
  val set_sink : 'a t -> Obs.sink -> track:int -> unit

  (** [set_class t ~cls ~weight] declares (or re-weights) a class.
      Classes are created implicitly with weight 1 on first enqueue.
      Raises [Invalid_argument] if [weight < 1]. *)
  val set_class : 'a t -> cls:int -> weight:int -> unit

  val weight_of : 'a t -> cls:int -> int option

  (** [enqueue t ~cls meta x] queues [x] on class [cls]; [meta] feeds the
      stage-2 discipline and [meta.bytes] charges the stage-1 deficit. *)
  val enqueue : 'a t -> cls:int -> meta -> 'a -> unit

  (** Next (class, element) per the two-stage discipline. *)
  val dequeue : 'a t -> (int * 'a) option

  val length : 'a t -> int
  val is_empty : 'a t -> bool

  (** Queued elements on one class (other classes' backlogs never count
      against it). *)
  val class_length : 'a t -> cls:int -> int

  (** Stage-1 quantum refills so far (a determinism-friendly progress
      measure). *)
  val rounds : 'a t -> int

  val drain : 'a t -> (int * 'a) list

  (** Visit every queued element in deterministic rotation-walk order. *)
  val iter : (int -> 'a -> unit) -> 'a t -> unit

  (** [remove_class t ~cls] drops the class and returns its queued
      elements in service order (used to recycle descriptors when a VF
      detaches). *)
  val remove_class : 'a t -> cls:int -> 'a list
end
