type outcome =
  | Delivered of Net.Packet.t
  | Dropped_at of int
  | Link_reject of { hop : int; error : Channel.recv_error }

(* Chrome-trace track range for fabric hops; QoS stopped at 922. *)
let hop_track_base = 930

type t = {
  mutable c_stages : Nf.Types.t array;
  mutable c_links : (Channel.tx * Channel.rx) array;
  mutable c_hops : int;
  mutable c_ts : int; (* deterministic span clock, one tick per hop *)
  c_sink : Obs.sink;
}

let create ?(sink = Obs.null) stages ~links =
  let stages = Array.of_list stages in
  let links = Array.of_list links in
  if Array.length stages = 0 then invalid_arg "Fabric.Chain.create: empty chain";
  if Array.length links <> Array.length stages - 1 then
    invalid_arg "Fabric.Chain.create: need exactly one link between consecutive stages";
  { c_stages = stages; c_links = links; c_hops = 0; c_ts = 0; c_sink = sink }

let hop_count t = t.c_hops

let sum_links t f = Array.fold_left (fun acc (_, rx) -> acc + f rx) 0 t.c_links
let mac_failures t = sum_links t Channel.mac_failures

let check_hop t hop =
  if hop < 0 || hop >= Array.length t.c_links then invalid_arg "Fabric.Chain: hop index out of range"

let link_rx t ~hop =
  check_hop t hop;
  snd t.c_links.(hop)

(* One link crossing: serialize, MAC, authenticate, re-parse.  The span
   covers the wire transfer; its arg is the payload length. *)
let cross t ~hop pkt =
  let tx, rx = t.c_links.(hop) in
  let wire = Bytes.to_string (Net.Packet.serialize pkt) in
  let ts = t.c_ts in
  t.c_ts <- ts + 1;
  let track = hop_track_base + hop in
  Obs.span_begin t.c_sink ~ts ~track Obs.Fabric "fabric_hop" ~arg:(String.length wire);
  let r =
    match Channel.recv rx (Channel.send tx wire) with
    | Error e -> Error (Link_reject { hop; error = e })
    | Ok payload -> (
      t.c_hops <- t.c_hops + 1;
      Obs.count t.c_sink Obs.Fabric_hop;
      match Net.Packet.parse (Bytes.of_string payload) with
      | Ok pkt -> Ok pkt
      | Error _ ->
        (* Authenticated payloads are packets we serialized ourselves;
           a parse failure means the channel delivered wrong bytes. *)
        Error (Link_reject { hop; error = Channel.Decode Frame.Bad_mac }))
  in
  Obs.span_end t.c_sink ~ts:(ts + 1) ~track Obs.Fabric "fabric_hop" ~arg:(String.length wire);
  r

let feed t pkt =
  let n = Array.length t.c_stages in
  let rec go i pkt =
    match t.c_stages.(i).Nf.Types.process pkt with
    | Nf.Types.Drop _ -> Dropped_at i
    | Nf.Types.Forward pkt ->
      if i = n - 1 then Delivered pkt
      else begin
        match cross t ~hop:i pkt with
        | Ok pkt -> go (i + 1) pkt
        | Error o -> o
      end
  in
  go 0 pkt

let relink t ~hop stage (tx, rx) =
  check_hop t hop;
  let old_tx, _ = t.c_links.(hop) in
  let backlog = Channel.buffered old_tx in
  t.c_stages.(hop + 1) <- stage;
  t.c_links.(hop) <- (tx, rx);
  Obs.count t.c_sink Obs.Fabric_failover;
  (* State replay: push the buffered payloads through the new channel so
     the re-placed stage rebuilds its flow state.  Verdicts are ignored —
     these frames already finished their first traversal. *)
  List.fold_left
    (fun n payload ->
      match Channel.recv rx (Channel.send tx payload) with
      | Error _ -> n
      | Ok payload -> (
        Obs.count t.c_sink Obs.Fabric_hop;
        t.c_hops <- t.c_hops + 1;
        match Net.Packet.parse (Bytes.of_string payload) with
        | Error _ -> n
        | Ok pkt ->
          ignore (stage.Nf.Types.process pkt);
          n + 1))
    0 backlog
