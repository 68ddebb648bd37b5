(** GF(2^8) arithmetic with the AES/RAID-6 polynomial x^8+x^4+x^3+x^2+1
    (0x11D), via log/antilog tables. The RAID accelerator's Q-parity is
    Reed–Solomon coding over this field. *)

val add : int -> int -> int
(** Addition = XOR. *)

val mul : int -> int -> int
val div : int -> int -> int
(** [div a b] raises [Division_by_zero] when [b = 0]. *)

val inv : int -> int

(** [exp k] is 2^k, 2 being the field generator. *)
val exp : int -> int
