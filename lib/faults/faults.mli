(** Seeded gray-failure injection plans for the simulated NIC devices.

    The paper's threat model assumes hardware that fails *closed*
    (teardown scrubs, attestation rejects mis-staged images); real SoC
    NICs mostly fail *gray*: DMA engines drop or corrupt transfers,
    accelerators wedge, links drop frames, DRAM bits rot. A plan arms
    per-device fault points with firing probabilities; each firing is
    recorded as a typed {!fault_event} in an append-only injection log,
    so a run never produces a silent wrong answer without a matching log
    entry, and a seeded run replays its fault schedule byte for byte.

    The library is dependency-free: devices consult the plan at their
    fault points, the fleet supervisor reads the log for health scoring,
    and tests diff [log_to_string] across runs for determinism. *)

(** The device-level fault points (where gray failures strike). *)
type site =
  | Dma_error (* transfer fails outright *)
  | Dma_stall (* transfer completes but the engine stalls for cycles *)
  | Dma_corrupt (* a single bit of the transferred data flips in flight *)
  | Accel_hang (* a submitted request never completes (watchdog horizon) *)
  | Accel_garbage (* the engine signals completion but the output is garbage *)
  | Rx_drop (* ingress drops the frame before the switch sees it *)
  | Rx_corrupt (* a single bit of the arriving frame flips *)
  | Tx_drop (* egress eats the frame instead of putting it on the wire *)
  | Bus_timeout (* a bus operation wedges for a long timeout window *)
  | Dram_flip (* a single DRAM bit rots *)

val all_sites : site list
val site_name : site -> string

(** One firing of a fault point: the typed record surfaced on result
    paths and appended to the injection log. [seq] orders events within
    one plan. *)
type fault_event = { seq : int; device : string; site : site; detail : string }

val event_to_string : fault_event -> string

(** Per-site firing probabilities in [0, 1]. A rate of exactly [0.]
    consumes no randomness, so arming one site does not perturb the
    schedule of the others. *)
type rates = {
  dma_error : float;
  dma_stall : float;
  dma_corrupt : float;
  accel_hang : float;
  accel_garbage : float;
  rx_drop : float;
  rx_corrupt : float;
  tx_drop : float;
  bus_timeout : float;
  dram_flip : float;
}

(** Everything off. *)
val none : rates

(** A moderate gray-failure storm; [intensity] (default 1.0) scales every
    rate linearly (clamped to 1.0). *)
val storm : ?intensity:float -> unit -> rates

type t

(** [plan ~seed rates] — arm a fault plan. Same seed and same sequence of
    consultations => same firings, same log. *)
val plan : seed:int -> rates -> t

(** [roll t site] — draw once against [site]'s rate; [true] means the
    fault fires (the caller then builds a detail string and {!record}s
    it). Rate 0.0 returns [false] without consuming randomness. *)
val roll : t -> site -> bool

(** [draw_int t bound] — auxiliary randomness for a firing fault (bit
    index, stall length). Uniform in [0, bound). *)
val draw_int : t -> int -> int

(** [record t ~device site ~detail] — append a typed event to the
    injection log and return it. *)
val record : t -> device:string -> site -> detail:string -> fault_event

(** [fire t ~device site ~detail] — [roll] and, when the fault fires,
    [record] with the given detail. *)
val fire : t -> device:string -> site -> detail:string -> fault_event option

(** {2 The injection log} *)

(** Firings of one site so far. *)
val count : t -> site -> int

(** Total firings so far. *)
val total : t -> int

(** One line per event ("#seq device site: detail"), newline-terminated;
    the replay artifact the determinism tests diff. *)
val log_to_string : t -> string
