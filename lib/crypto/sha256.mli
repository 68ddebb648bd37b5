(** SHA-256 (FIPS 180-4), implemented from scratch.

    The S-NIC trusted hardware computes a cumulative SHA-256 measurement of
    a network function's initial state during [nf_launch] (§4.6) and signs
    it during [nf_attest] (Appendix A). *)

type ctx

val init : unit -> ctx

(** [feed ctx s] absorbs [s]; may be called repeatedly. *)
val feed : ctx -> string -> unit

val feed_bytes : ctx -> bytes -> unit

(** [feed_sub ctx b ~pos ~len] absorbs bytes [pos .. pos+len-1] of [b]
    without copying them out first.  Raises [Invalid_argument] if the
    range is not inside [b]. *)
val feed_sub : ctx -> bytes -> pos:int -> len:int -> unit

(** [finalize ctx] returns the 32-byte digest. The context must not be
    used afterwards. *)
val finalize : ctx -> string

(** One-shot digest. *)
val digest : string -> string

val to_hex : string -> string
