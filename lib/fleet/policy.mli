(** Pluggable placement policies: given the fleet and a tenant demand,
    pick the NIC the NF should run on (or [None] when nothing admits it).

    All policies consult {!Node.admits} — they differ only in how they
    rank the admitting candidates, and all rank deterministically (ties
    break toward the lowest NIC id) so a seeded scenario replays
    identically. *)

type t =
  | First_fit (* lowest NIC id that admits the demand *)
  | Best_fit (* tightest remaining RAM headroom after placement *)
  | Spread (* fewest NFs currently hosted *)
  | Tco_aware (* consolidate: avoid activating idle NICs (their 3-year
                 TCO is sunk only once powered); among active NICs take
                 the tightest locked-TLB fit *)

val all : t list
val name : t -> string
val of_string : string -> (t, string) result

(** [choose t nodes demand] — the chosen node, if any admits [demand]. *)
val choose : t -> Node.t array -> Workload.demand -> Node.t option
