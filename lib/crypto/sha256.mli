(** SHA-256 (FIPS 180-4), implemented from scratch.

    The S-NIC trusted hardware computes a cumulative SHA-256 measurement of
    a network function's initial state during [nf_launch] (§4.6) and signs
    it during [nf_attest] (Appendix A).

    Cost: one compression per 64-byte block plus one or two in
    {!finalize}.  Whole blocks are compressed straight from the caller's
    bytes; only a partial block is buffered.  Absorbing allocates
    nothing, and {!finalize} allocates only its 32-byte result. *)

type ctx

val init : unit -> ctx

(** [copy ctx] is an independent context in the same state: absorbing
    into one does not change the other.  A context that is only ever
    copied (never fed or finalized again) can be shared read-only across
    domains; this is how {!Hmac.key} precomputes its key pads. *)
val copy : ctx -> ctx

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

(** Lowercase hex, two digits per byte. *)
val to_hex : string -> string
