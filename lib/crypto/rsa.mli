(** Textbook RSA with SHA-256 digests and deterministic padding.

    S-NIC hardware carries two RSA key pairs (Appendix A): the endorsement
    key [EK], burned in at manufacturing time and certified by the NIC
    vendor, and a per-boot attestation key [AK] whose public half is signed
    by the [EK]. This module provides keygen, signing and verification for
    both, plus a minimal certificate type for the vendor chain. *)

type public = { n : Bigint.t; e : Bigint.t }

(** A private key. Beside the exponent [d] it carries the CRT form that
    {!sign} uses: the primes [p] and [q] ([n = p * q], [p] drawn first),
    [dp = d mod (p - 1)], [dq = d mod (q - 1)] and [qinv = q^-1 mod p]. *)
type keypair = {
  pub : public;
  d : Bigint.t;
  p : Bigint.t;
  q : Bigint.t;
  dp : Bigint.t;
  dq : Bigint.t;
  qinv : Bigint.t;
}

(** [generate state ~bits] builds an RSA key with a [bits]-bit modulus and
    public exponent 65537. *)
val generate : Random.State.t -> bits:int -> keypair

(** [sign key msg] signs SHA-256([msg]) under PKCS#1-style fixed padding.
    The result is [modulus_bytes] long. It is computed with the CRT fields
    (two half-size exponentiations and Garner's recombination) and is
    byte-identical to [m^d mod n]. *)
val sign : keypair -> string -> string

val verify : public -> msg:string -> signature:string -> bool

val modulus_bytes : public -> int

(** Serialized public key, suitable for hashing into certificates. *)
val public_to_string : public -> string

type certificate = {
  subject : string; (* e.g. "S-NIC EK serial 0042" *)
  key : public;
  issuer : string; (* vendor name *)
  signature : string; (* issuer's signature over subject+key *)
}

(** [issue ~issuer_name ~issuer_key ~subject key] signs [key] into a
    certificate. *)
val issue : issuer_name:string -> issuer_key:keypair -> subject:string -> public -> certificate

val check_certificate : issuer_key:public -> certificate -> bool
