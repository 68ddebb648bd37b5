(** Memory profiles of the three virtualized hardware accelerators
    (Table 7) and the derived TLB bank sizes. Buffer sizes are the
    LiquidIO defaults the paper profiles. *)

type t = {
  name : string;
  buffers : (string * int) list; (* (buffer name, bytes) *)
}

val dpi : t
val zip : t
val raid : t
val all : t list

val total_mb : t -> float

(** TLB bank entries at 2 MB pages (Table 7's last column). *)
val tlb_entries : t -> int
