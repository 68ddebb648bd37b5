let port_base = 1024
let port_limit = 65_536

type mapping = { port : int; mutable last_used : int }

type t = {
  internal_prefix : Net.Ipv4_addr.t * int;
  external_ip : Net.Ipv4_addr.t;
  (* outbound flow -> allocated external source port + recency *)
  forward : mapping Net.Five_tuple.Table.t;
  (* external port -> original outbound flow, for reverse translation *)
  reverse : (int, Net.Five_tuple.t) Hashtbl.t;
  mutable next_port : int;
  recycled : int Queue.t; (* ports returned by expiry *)
  mutable clock : int; (* event time: one tick per translated packet *)
  probe : Types.probe option;
}

let create ?probe ~internal_prefix ~external_ip () =
  {
    internal_prefix;
    external_ip;
    forward = Net.Five_tuple.Table.create 1024;
    reverse = Hashtbl.create 1024;
    next_port = port_base;
    recycled = Queue.create ();
    clock = 0;
    probe;
  }

let free_ports t = port_limit - t.next_port + Queue.length t.recycled
let active_mappings t = Net.Five_tuple.Table.length t.forward

let is_internal t ip =
  let prefix, len = t.internal_prefix in
  Net.Ipv4_addr.in_prefix ip ~prefix ~len

let probe_flow t flow =
  match t.probe with
  | Some probe -> probe ~region:0 ~index:(Net.Five_tuple.hash flow mod port_limit)
  | None -> ()

let alloc_port t =
  match Queue.take_opt t.recycled with
  | Some p -> Some p
  | None ->
    if t.next_port >= port_limit then None
    else begin
      let p = t.next_port in
      t.next_port <- t.next_port + 1;
      Some p
    end

let translate t (pkt : Net.Packet.t) =
  let flow = Net.Packet.flow pkt in
  t.clock <- t.clock + 1;
  probe_flow t flow;
  if is_internal t pkt.src_ip then begin
    (* Outbound: rewrite source to (external_ip, allocated port). *)
    let port =
      match Net.Five_tuple.Table.find_opt t.forward flow with
      | Some m ->
        m.last_used <- t.clock;
        Some m.port
      | None -> begin
        match alloc_port t with
        | None -> None
        | Some p ->
          Net.Five_tuple.Table.add t.forward flow { port = p; last_used = t.clock };
          Hashtbl.replace t.reverse p flow;
          Some p
      end
    in
    Option.map (fun p -> { pkt with src_ip = t.external_ip; src_port = p }) port
  end
  else if pkt.dst_ip = t.external_ip then begin
    (* Inbound: restore the original internal endpoint (and refresh the
       mapping's recency). *)
    match Hashtbl.find_opt t.reverse pkt.dst_port with
    | Some orig ->
      (match Net.Five_tuple.Table.find_opt t.forward orig with
      | Some m -> m.last_used <- t.clock
      | None -> ());
      Some { pkt with dst_ip = orig.Net.Five_tuple.src_ip; dst_port = orig.Net.Five_tuple.src_port }
    | None -> None
  end
  else None

let nf t =
  {
    Types.name = "NAT";
    process =
      (fun pkt ->
        match translate t pkt with
        | Some pkt' -> Types.Forward pkt'
        | None -> Types.Drop "no NAT mapping");
  }

let expire t ~idle_for =
  if idle_for < 0 then invalid_arg "Nat.expire: negative idle threshold";
  let cutoff = t.clock - idle_for in
  let stale =
    Net.Five_tuple.Table.fold (fun flow m acc -> if m.last_used < cutoff then (flow, m.port) :: acc else acc)
      t.forward []
  in
  List.iter
    (fun (flow, port) ->
      Net.Five_tuple.Table.remove t.forward flow;
      Hashtbl.remove t.reverse port;
      Queue.push port t.recycled)
    stale;
  List.length stale
