(** Arbitrary-precision natural numbers.

    This module is the arithmetic substrate for the S-NIC attestation
    protocol (Diffie–Hellman exchanges and RSA signatures, Appendix A of the
    paper). Only naturals are provided: every quantity in the protocol
    (hashes, group elements, moduli) is non-negative.

    Numbers are immutable. All functions raising on misuse document it. *)

type t

val zero : t
val one : t
val two : t

(** [of_int n] converts a non-negative [int]. Raises [Invalid_argument]
    on negative input. *)
val of_int : int -> t

(** [to_int t] is [Some n] when [t] fits in an OCaml [int]. *)
val to_int : t -> int option

(** Hex I/O, linear in the number of digits. [of_hex] accepts upper/lower
    case and an optional ["0x"] prefix; raises [Invalid_argument] on other
    characters or an empty digit string. [to_hex] emits lower case without
    prefix; [to_hex zero = "0"]. *)
val of_hex : string -> t
val to_hex : t -> string

(** Big-endian byte-string conversions, linear in the length.
    [to_bytes_be ~len t] left-pads with zero bytes; raises
    [Invalid_argument] if [t] needs more than [len] bytes. *)
val of_bytes_be : string -> t
val to_bytes_be : len:int -> t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

(** Number of significant bits; [bit_length zero = 0]. *)
val bit_length : t -> int

(** [testbit t i] is bit [i] (0 = least significant). *)
val testbit : t -> int -> bool

val add : t -> t -> t

(** [sub a b] raises [Invalid_argument] when [a < b]. *)
val sub : t -> t -> t

val mul : t -> t -> t

(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero]. *)
val divmod : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

(** [modpow ~base ~exponent ~modulus] computes [base^exponent mod modulus].
    Raises [Division_by_zero] if [modulus] is zero.

    An odd modulus takes Montgomery multiplication on preallocated
    fixed-width limb buffers with left-to-right fixed-window
    exponentiation; the window widens with the exponent's bit length
    (width 1, plain binary, up to 24 bits). An even modulus falls back to
    binary square-and-multiply with a full division per step.

    Not constant-time: running time and memory access follow the exponent
    bits and the operands. The simulator has no side-channel model, so
    this is not a concern here, but the function is not fit for real
    secrets. *)
val modpow : base:t -> exponent:t -> modulus:t -> t

val gcd : t -> t -> t

(** [modinv a m] is the inverse of [a] modulo [m], when [gcd a m = 1]. *)
val modinv : t -> t -> t option

(** [random state ~bits] draws a uniform number in [[0, 2^bits)]. *)
val random : Random.State.t -> bits:int -> t

(** Miller–Rabin with [rounds] random bases (default 24). *)
val is_probable_prime : ?rounds:int -> Random.State.t -> t -> bool

(** [random_prime state ~bits] draws an odd probable prime with exactly
    [bits] bits. Raises [Invalid_argument] when [bits < 2]. *)
val random_prime : Random.State.t -> bits:int -> t

val pp : Format.formatter -> t -> unit
