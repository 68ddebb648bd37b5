(** The Appendix A attestation handshake as an explicit four-message wire
    protocol, suitable for running over an untrusted transport:

    {v
    verifier -> prover : HELLO(nonce)
    prover  -> verifier: QUOTE(measurement, DH params, g^x, signature, cert chain)
    verifier-> prover  : SHARE(g^y)
    prover  -> verifier: FINISHED(HMAC(key, transcript))
    v}

    After FINISHED verifies, both sides hold the same fresh symmetric key
    and the verifier knows exactly which function, on which (vendor-
    certified) S-NIC, holds the other end. Every message is a strict
    {!Wire} encoding; any tampering surfaces as a decode, signature or
    MAC failure. *)

module Verifier : sig
  type t

  (** [start rng ~vendor_public ?expected_measurement ()] returns the
      state and the HELLO bytes to send. *)
  val start :
    Random.State.t -> vendor_public:Crypto.Rsa.public -> ?expected_measurement:string -> unit -> t * string

  (** [on_quote t bytes] validates the QUOTE and returns the SHARE bytes
      to send back. *)
  val on_quote : t -> string -> (string, string) result

  (** [on_finished t bytes] checks the prover's key confirmation. *)
  val on_finished : t -> string -> (unit, string) result

  (** The session key; available after [on_quote] succeeds. *)
  val key : t -> string option

end

module Prover : sig
  type t

  val create : Random.State.t -> Attestation.attester -> t

  (** [on_hello t bytes] returns the QUOTE bytes. *)
  val on_hello : t -> string -> (string, string) result

  (** [on_share t bytes] derives the key and returns the FINISHED
      bytes. *)
  val on_share : t -> string -> (string, string) result

  val key : t -> string option
end

(** [handshake rng ~vendor_public ?expected_measurement attester] runs
    the whole exchange in-process (test/demo convenience); returns the
    two ends' keys. *)
val handshake :
  Random.State.t ->
  vendor_public:Crypto.Rsa.public ->
  ?expected_measurement:string ->
  Attestation.attester ->
  (string * string, string) result
