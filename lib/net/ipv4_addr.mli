(** IPv4 addresses as host-order ints in [0, 2^32). *)

type t = int

val of_string : string -> t
(** Parses dotted-quad; raises [Invalid_argument] on malformed input. *)

val to_string : t -> string

(** [of_octets a b c d] builds [a.b.c.d]. *)
val of_octets : int -> int -> int -> int -> t

(** [in_prefix addr ~prefix ~len] tests membership in [prefix/len]. *)
val in_prefix : t -> prefix:t -> len:int -> bool
