(** Zipf-distributed sampling over ranks [0, n).

    The paper samples 100,000 flows from the ICTF trace and reports that
    their popularity follows a Zipf distribution with skewness 1.1 (§5.3);
    this module reproduces that distribution synthetically. *)

type t

(** [create ~n ~skew] precomputes the CDF for ranks 0..n-1 with
    P(rank = k) proportional to 1/(k+1)^skew. *)
val create : n:int -> skew:float -> t

(** [sample t rng] draws a rank; rank 0 is the most popular. *)
val sample : t -> Rng.t -> int

(** [probability t k] is the exact probability of rank [k]. *)
val probability : t -> int -> float
