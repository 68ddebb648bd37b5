type event = { flow : int; size : int; time_us : int }
type t = { flows : Net.Five_tuple.t array; events : event array }

(* Simple IMIX-like size mix: mostly small ACK-sized frames, a band of
   medium frames, and full-MTU data frames. *)
let imix_size rng =
  let r = Rng.int rng 100 in
  if r < 50 then 64 + Rng.int rng 64
  else if r < 85 then 512 + Rng.int rng 256
  else 1400 + Rng.int rng 118

let ictf_like ?(n_flows = 100_000) ~seed ~packets () =
  let rng = Rng.create ~seed in
  let flows = Flowgen.flows rng ~n:n_flows in
  let zipf = Zipf.create ~n:n_flows ~skew:1.1 in
  let duration_us = 60_000_000 in
  let events =
    Array.init packets (fun i ->
        {
          flow = Zipf.sample zipf rng;
          size = imix_size rng;
          time_us = (if packets = 1 then 0 else i * duration_us / (packets - 1));
        })
  in
  { flows; events }

let caida_like ?(flows_per_sec = 12_000) ~seed ~duration_s ~packets () =
  let rng = Rng.create ~seed in
  let total_flows = max 1 (int_of_float (float_of_int flows_per_sec *. duration_s)) in
  let flows = Flowgen.flows rng ~n:total_flows in
  let duration_us = int_of_float (duration_s *. 1e6) in
  let zipf = Zipf.create ~n:1000 ~skew:1.05 in
  let events =
    Array.init packets (fun i ->
        let time_us = if packets = 1 then 0 else i * duration_us / (packets - 1) in
        (* Flows arrive in index order over time; each packet belongs either
           to a brand-new flow (first appearance) or Zipf-reuses a recently
           arrived one, approximating the CAIDA working set. *)
        let newest = max 1 (total_flows * time_us / max 1 duration_us) in
        let flow =
          if Rng.int rng 100 < 35 then newest - 1
          else begin
            let back = Zipf.sample zipf rng * newest / 1000 in
            max 0 (newest - 1 - back)
          end
        in
        { flow; size = imix_size rng; time_us })
  in
  { flows; events }

let distinct_flows_before t cutoff_us =
  let seen = Hashtbl.create 1024 in
  Array.iter (fun e -> if e.time_us <= cutoff_us then Hashtbl.replace seen e.flow ()) t.events;
  Hashtbl.length seen

let packets t =
  let rng = Rng.create ~seed:0x7ace in
  Array.to_seq t.events
  |> Seq.map (fun e ->
         let flow = t.flows.(e.flow) in
         let proto = if flow.Net.Five_tuple.proto = 6 then Net.Packet.Tcp else Net.Packet.Udp in
         Flowgen.packet_of_flow ~payload_len:(Flowgen.payload_for_frame ~frame_size:e.size ~proto) rng flow)

let event_count t = Array.length t.events
