(** Metric registry: monotonic counters and fixed-bucket histograms.

    A {!registry} is a named bag of metrics.  Registration is idempotent:
    asking twice for the same name returns the same metric, so independent
    subsystems can share a registry without coordinating.  Exports are
    sorted by metric name, making the output a deterministic function of
    the recorded values. *)

type registry
(** A mutable collection of named metrics. *)

type counter
(** A monotonically increasing integer. *)

type histogram
(** A fixed-bucket histogram over [float] observations. *)

val create_registry : unit -> registry
(** A fresh, empty registry. *)

val counter : ?help:string -> registry -> string -> counter
(** [counter reg name] registers (or retrieves) the counter [name].
    Raises [Invalid_argument] if [name] is already a histogram. *)

val incr : counter -> unit
(** Add 1. *)

val add : counter -> int -> unit
(** Add [n] (must be non-negative; counters are monotonic). *)

val value : counter -> int
(** Current count. *)

val histogram : ?help:string -> ?buckets:float array -> registry -> string -> histogram
(** [histogram reg name] registers (or retrieves) the histogram [name].
    [buckets] are strictly increasing finite upper bounds (default: a
    log-ish ladder from 0.25 to 5000, suited to millisecond latencies);
    a [+Inf] overflow bucket is always appended.  Raises
    [Invalid_argument] if [name] is already a counter, or on a
    non-increasing bucket ladder. *)

val observe : histogram -> float -> unit
(** Record one observation. *)

val hist_count : histogram -> int
(** Number of observations. *)

val hist_sum : histogram -> float
(** Sum of observations. *)

val quantile : histogram -> float -> float option
(** [quantile h q] estimates the [q]-quantile ([0. <= q <= 1.]) with
    Prometheus-style linear interpolation inside the bucket containing
    the target rank (first bucket's lower edge is 0; the overflow bucket
    clamps to the last finite bound).  [None] when fewer than 2
    observations exist — a single sample has no spread, and an empty
    histogram has no p99. *)

val quantile_of_samples : float list -> float -> float option
(** [quantile_of_samples xs q] is the exact [q]-quantile of [xs]: sort,
    then linearly interpolate at rank [q * (n - 1)].  [None] when
    [List.length xs < 2].  This is the single quantile convention shared
    by the bench [--json] dump and the chaos report. *)

val counters : registry -> (string * int) list
(** All counters as [(name, value)], sorted by name. *)

val merge_into : into:registry -> registry -> unit
(** [merge_into ~into src] folds every metric of [src] into [into]:
    counters add their counts; histograms add bucket-wise (the bucket
    ladders must be identical) along with their sums and observation
    counts.  Metrics absent from [into] are registered first, so merging
    shard registries into a fresh registry yields the union.  Merging is
    commutative and associative over disjoint sources, which is what
    lets a parallel run's per-domain registries collapse into one
    snapshot independent of completion order (see PARALLELISM.md).
    Raises [Invalid_argument] if a name is a counter in one registry and
    a histogram in the other, or if two histograms with the same name
    have different bucket ladders. *)

val prometheus : registry -> string
(** Prometheus text-exposition dump of every metric, sorted by name.
    Counters render as [name value]; histograms as cumulative
    [name_bucket{le="..."}] lines plus [name_sum] and [name_count]. *)
