(** Trace sink: typed, cycle-stamped events plus a per-sink metric registry.

    A sink is either {!null} — every emit is a single branch, no
    allocation, no recording — or a recording sink from {!create}.
    Devices hold a sink and call {!count} / {!span_begin} / {!span_end} /
    {!instant} unconditionally; with the null sink the hot path pays one
    pattern match and nothing else, which is what lets instrumentation
    live permanently in [lib/nicsim] device code.

    Tracks: events carry a [(pid, track)] pair mapping onto Chrome
    trace_event's (process, thread).  Each serially-executing unit (a bus
    client, an accelerator thread, a DMA bank, a core's TLB) gets its own
    track so span begin/end pairs never overlap within a track.  The
    fleet layer gives each NIC its own [pid] via {!for_process}.

    Timestamps are simulated cycles where the device has a cycle clock
    (cache, bus, accelerators) and a deterministic global sequence number
    ({!seq}) where it does not (DMA, control plane) — never wall-clock,
    so a seeded run exports byte-identical traces. *)

(** Event category — one per instrumented subsystem. *)
type cat =
  | Tlb
  | Cache
  | Bus
  | Dma
  | Accel
  | Sched
  | Pktio
  | Ctrl  (** control-plane API calls: nf_create / nf_destroy *)
  | Fleet  (** orchestrator / supervisor actions *)
  | Qos  (** per-tenant credit arbiter: grants, throttles, SLO *)
  | Fabric  (** inter-NIC channels: hops, handshakes, failovers *)

val cat_name : cat -> string
(** Lower-case category label used in exporters (e.g. ["tlb"]). *)

(** Chrome trace_event phase of an {!event}. *)
type phase =
  | Span_begin  (** ["B"] — a duration span opens on this track *)
  | Span_end  (** ["E"] — the innermost open span on this track closes *)
  | Instant  (** ["i"] — a point event *)

type event = {
  ts : int;  (** cycles, or a {!seq} number where no device clock exists *)
  pid : int;  (** process id: NIC id in a fleet, 0 standalone *)
  track : int;  (** thread id: one serially-executing unit *)
  phase : phase;
  cat : cat;
  name : string;  (** static label, e.g. ["bus_grant"] *)
  arg : int;  (** one free integer argument (bytes, cycles, tenant id...) *)
}

(** Pre-registered hot-path counters.  Bumping one is an array increment —
    no hashing, no allocation — so even the TLB hit path can count. *)
type stat =
  | Tlb_hit
  | Tlb_miss
  | Cache_hit
  | Cache_miss
  | Cache_evict
  | Cache_fill
  | Bus_grant
  | Bus_stall
  | Dma_start
  | Dma_complete
  | Dma_fault
  | Accel_dispatch
  | Accel_retire
  | Sched_switch
  | Pktio_rx
  | Pktio_tx
  | Pktio_drop
  | Vf_tx
  | Vf_rx
  | Vf_drop
  | Vf_doorbell
  | Qos_grant
  | Qos_throttle
  | Qos_borrow
  | Slo_violation
  | Ddos_syn_challenge
  | Ddos_admit
  | Ddos_attack_drop
  | Ddos_benign_drop
  | Ddos_goodput_pkt
  | Fabric_tx
  | Fabric_rx
  | Fabric_mac_fail
  | Fabric_replay_drop
  | Fabric_stale_drop
  | Fabric_hop
  | Fabric_handshake
  | Fabric_failover

type sink
(** Either the null sink or a recording sink. *)

val null : sink
(** The no-op sink: every emit returns immediately after one branch. *)

val create : unit -> sink
(** A fresh recording sink with its own event buffer and registry. *)

val is_null : sink -> bool

val for_process : sink -> pid:int -> sink
(** Same recorder, different [pid]: how the fleet layer gives each NIC
    its own process lane in the exported trace.  [for_process null] is
    [null]. *)

val pid : sink -> int
(** The pid stamped on events emitted through this sink (0 for null). *)

val registry : sink -> Metrics.registry option
(** The sink's metric registry; [None] for the null sink. *)

val events : sink -> event list
(** Recorded events, in emission order.  Empty for the null sink. *)

val seq : sink -> int
(** Next value of the deterministic global sequence, for timestamping
    events from devices without a cycle clock.  Monotonic per recorder;
    always [0] on the null sink. *)

val count : sink -> stat -> unit
(** Bump a hot-path counter.  Allocation-free on both paths. *)

val count_n : sink -> stat -> int -> unit
(** Bump a hot-path counter by [n]. *)

val span_begin : sink -> ts:int -> track:int -> cat -> string -> arg:int -> unit
(** Open a span on [(pid, track)] at [ts].  Every [span_begin] must be
    matched by a {!span_end} on the same track at a [ts' >= ts]. *)

val span_end : sink -> ts:int -> track:int -> cat -> string -> arg:int -> unit
(** Close the innermost open span on [(pid, track)]. *)

val instant : sink -> ts:int -> track:int -> cat -> string -> arg:int -> unit
(** A point event. *)

val observe : sink -> string -> float -> unit
(** Record an observation into the named histogram of the sink's registry
    (created on first use with {!Metrics.histogram}'s default buckets).
    No-op on the null sink.  Not for per-cycle hot paths — it does a
    name lookup. *)

val name_track : sink -> track:int -> string -> unit
(** Attach a human-readable name to [(pid, track)], exported as Chrome
    [thread_name] metadata.  Last writer wins. *)

val name_process : sink -> pid:int -> string -> unit
(** Attach a human-readable name to [pid], exported as Chrome
    [process_name] metadata. *)

val track_names : sink -> ((int * int) * string) list
(** All [(pid, track) -> name] bindings, sorted. *)

val process_names : sink -> (int * string) list
(** All [pid -> name] bindings, sorted. *)

val span_count : sink -> int
(** Number of [Span_begin] events recorded (equals the registry counter
    [obs_spans_begun_total]). *)
