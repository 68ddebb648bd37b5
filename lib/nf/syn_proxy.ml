(* CuckooGuard-style SYN-cookie split proxy: the defense keeps ZERO
   per-SYN state.  A SYN is answered with a stateless cookie (truncated
   HMAC-SHA256 over the 5-tuple and a coarse epoch) and dropped; only a
   client that echoes the cookie back proves liveness and earns a slot
   in the fixed-memory cuckoo-filter whitelist.  Spoofed sources never
   see the cookie, so a flood costs the proxy nothing but per-packet
   compute — memory stays flat at the filter's fixed reservation.

   [Net.Packet.t] carries no TCP flags, so the handshake rides on a
   payload convention: a payload of "SYN" is a SYN, "ACK:<hex>" is the
   cookie echo, anything else is data.  UDP is not the proxy's problem
   and passes through untouched. *)

type t = {
  key : Crypto.Hmac.key; (* pads absorbed once, in [create] *)
  filter : Cuckoo.t;
  mutable epoch : int;
  mutable challenges : int; (* SYNs answered with a cookie (and dropped) *)
  mutable admitted : int; (* valid cookie echoes whitelisted *)
  mutable bad_cookies : int;
  mutable no_handshake : int; (* data from flows not in the whitelist *)
}

let create ?probe ?filter_seed ?(fp_bits = 12) ?(log2_buckets = 14) ~key () =
  {
    key = Crypto.Hmac.prepare key;
    filter = Cuckoo.create ?probe ?seed:filter_seed ~fp_bits ~log2_buckets ();
    epoch = 0;
    challenges = 0;
    admitted = 0;
    bad_cookies = 0;
    no_handshake = 0;
  }

let cookie_bytes = 8

let cookie_at t ~epoch flow =
  let msg = Net.Five_tuple.to_string flow ^ "|" ^ string_of_int epoch in
  let tag = Crypto.Hmac.mac_sub ~key:t.key (Bytes.unsafe_of_string msg) ~pos:0 ~len:(String.length msg) in
  Crypto.Sha256.to_hex (String.sub tag 0 cookie_bytes)

let cookie t flow = cookie_at t ~epoch:t.epoch flow

(* A cookie stays valid across one epoch turn (the client's RTT may
   straddle it); anything older is stale and rejected. *)
let validate t flow hex = String.equal hex (cookie t flow) || String.equal hex (cookie_at t ~epoch:(t.epoch - 1) flow)

let advance_epoch t = t.epoch <- t.epoch + 1

(* [prefix] is a prefix of [s], compared in place. *)
let rec prefix_from ~prefix s i = i = String.length prefix || (prefix.[i] = s.[i] && prefix_from ~prefix s (i + 1))
let has_prefix ~prefix s = String.length s >= String.length prefix && prefix_from ~prefix s 0

let syn_payload = "SYN"
let ack_prefix = "ACK:"
let ack_payload t flow = ack_prefix ^ cookie t flow

let whitelisted t flow = Cuckoo.mem t.filter flow

let process t pkt =
  match pkt.Net.Packet.proto with
  | Net.Packet.Udp -> Types.Forward pkt
  | Net.Packet.Tcp ->
    let flow = Net.Packet.flow pkt in
    let payload = pkt.Net.Packet.payload in
    if String.equal payload syn_payload then begin
      (* Stateless challenge: answer with the cookie, keep nothing. *)
      t.challenges <- t.challenges + 1;
      Types.Drop ("syn-cookie-challenge:" ^ cookie t flow)
    end
    else if has_prefix ~prefix:ack_prefix payload then begin
      let hex = String.sub payload (String.length ack_prefix) (String.length payload - String.length ack_prefix) in
      if validate t flow hex then begin
        t.admitted <- t.admitted + 1;
        ignore (Cuckoo.insert t.filter flow);
        Types.Forward pkt
      end
      else begin
        t.bad_cookies <- t.bad_cookies + 1;
        Types.Drop "bad-cookie"
      end
    end
    else if whitelisted t flow then Types.Forward pkt
    else begin
      t.no_handshake <- t.no_handshake + 1;
      Types.Drop "no-handshake"
    end

let nf t = { Types.name = "SYNP"; process = (fun pkt -> process t pkt) }
let filter t = t.filter
let memory_bytes t = Cuckoo.memory_bytes t.filter
let challenges t = t.challenges
let admitted t = t.admitted
let bad_cookies t = t.bad_cookies
let no_handshake t = t.no_handshake
