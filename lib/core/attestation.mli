(** The S-NIC remote-attestation protocol (Appendix A).

    A verifier sends a nonce; the prover (an NF on an S-NIC, or any other
    measured environment such as a host enclave) contributes a fresh
    Diffie–Hellman share and asks its trusted hardware to sign
    H(initial-state) together with the DH parameters and nonce. The
    verifier checks the vendor → EK → AK → quote chain, the nonce, and
    optionally the expected measurement, then answers with its own DH
    share; both sides derive the same symmetric key, known to nobody
    else — in particular not to the datacenter operator. *)

type quote = {
  measurement : string; (* hash of the prover's initial state *)
  group : Crypto.Dh.group;
  dh_public : Bigint.t; (* g^x mod p *)
  nonce : string; (* echoed verifier nonce *)
  signature : string; (* AK signature over the quote payload *)
  ak : Crypto.Rsa.public;
  ak_endorsement : string; (* EK signature over the AK *)
  ek_cert : Crypto.Rsa.certificate; (* vendor-signed EK certificate *)
}

(** Anything that can attest: trusted hardware identity plus the
    measurement it vouches for. *)
type attester = { identity : Identity.t; measurement : string }

(** The attester for a launched S-NIC function. *)
val attester_of_nf : Instructions.t -> id:int -> (attester, Instructions.error) result

(** Prover state holding the ephemeral DH secret. *)
type responder

(** [respond rng attester ~nonce] performs the prover side over the
    {!Crypto.Dh.sim_768} group. *)
val respond : Random.State.t -> attester -> nonce:string -> responder * quote

(** [responder_key r ~verifier_share] derives the 32-byte session key
    after the verifier's g^y arrives. *)
val responder_key : responder -> verifier_share:Bigint.t -> string

type verify_error =
  | Bad_certificate_chain
  | Bad_signature
  | Nonce_mismatch
  | Unexpected_measurement of { expected : string; got : string }

val verify_error_to_string : verify_error -> string

type verified = {
  key : string; (* the shared 32-byte session key *)
  verifier_share : Bigint.t; (* g^y to send back to the prover *)
  quote_measurement : string;
}

(** [verify rng ~vendor_public ?expected_measurement ~nonce quote]
    performs the verifier side. *)
val verify :
  Random.State.t ->
  vendor_public:Crypto.Rsa.public ->
  ?expected_measurement:string ->
  nonce:string ->
  quote ->
  (verified, verify_error) result

(** {2 Wire format}

    Quotes cross an untrusted network; [quote_to_bytes]/[quote_of_bytes]
    give them a strict, self-delimiting encoding. Tampering surfaces as a
    decode error or, downstream, a signature failure. *)

val quote_to_bytes : quote -> string
val quote_of_bytes : string -> (quote, string) result
