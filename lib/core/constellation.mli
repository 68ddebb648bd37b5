(** Constellations of trusted computations (§4.7, Figure 4).

    A tenant stitches together S-NIC functions and host-level enclaves
    into a mesh where every pair has mutually attested and shares an
    encrypted channel — so neither the datacenter operator nor co-located
    tenants can read or tamper with cross-node traffic. *)

(** A participant: an attested S-NIC function, or a host-level trusted
    execution environment (SGX-enclave stand-in with the same
    quote/verify structure). *)
type endpoint

(** [of_nf ?name api vnic] — names default to ["nf-<id>"]. *)
val of_nf : ?name:string -> Api.t -> Vnic.t -> endpoint

(** [enclave ~vendor ~name ~code] simulates a host enclave whose
    measurement is SHA-256 of [code]; [vendor] plays the role of the CPU
    manufacturer's attestation service. *)
val enclave : ?seed:int -> vendor:Identity.vendor -> name:string -> code:string -> unit -> endpoint

val name : endpoint -> string
val measurement : endpoint -> string

(** A mutually attested, encrypted, replay-protected channel. *)
type channel

type error =
  | Attestation_failed of { prover : string; reason : string }
  | Unknown_vendor of string

val error_to_string : error -> string

(** [connect rng ~trusted_vendors a b] runs pairwise attestation in both
    directions. [trusted_vendors] is the verifier's root store; provers
    whose EK chains to an unknown vendor are rejected. Optional
    [expected] pins each side's measurement. *)
val connect :
  Random.State.t ->
  trusted_vendors:Identity.vendor list ->
  ?expected_a:string ->
  ?expected_b:string ->
  endpoint ->
  endpoint ->
  (channel, error) result

(** [send ch ~from:0|1 payload] seals a message for the other side;
    [recv] opens and advances the replay window. *)
val send : channel -> from:int -> string -> string

val recv : channel -> at:int -> string -> (string, string) result
