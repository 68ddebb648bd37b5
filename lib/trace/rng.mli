(** Deterministic SplitMix64-style pseudo-random generator.

    Every experiment in this repository is seeded, so traces, rulesets and
    colocation sweeps reproduce bit-for-bit across runs. *)

type t

val create : seed:int -> t

(** [bits t] draws 62 uniform bits (a non-negative int). *)
val bits : t -> int

(** [int t bound] draws uniformly from [[0, bound)]. Raises on
    [bound <= 0]. *)
val int : t -> int -> int

(** [float t] draws uniformly from [[0, 1)]. *)
val float : t -> float

val bool : t -> bool

(** [pick t arr] draws a uniform element. Raises on empty arrays. *)
val pick : t -> 'a array -> 'a

(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit
