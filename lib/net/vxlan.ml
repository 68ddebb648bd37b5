type vni = int

let vxlan_port = 4789 (* IANA *)

type encapsulated = { vni : vni; outer_src_ip : Ipv4_addr.t; outer_dst_ip : Ipv4_addr.t; inner : Packet.t }

(* 8-byte VXLAN header: flags (bit 3 = valid VNI), 3 reserved, VNI, reserved. *)
let header vni =
  let b = Bytes.make 8 '\000' in
  Bytes.set b 0 '\x08';
  Bytes.set b 4 (Char.chr ((vni lsr 16) land 0xff));
  Bytes.set b 5 (Char.chr ((vni lsr 8) land 0xff));
  Bytes.set b 6 (Char.chr (vni land 0xff));
  Bytes.to_string b

let encapsulate ~vni ~outer_src_ip ~outer_dst_ip inner =
  if vni < 0 || vni > 0xffffff then invalid_arg "Vxlan.encapsulate: VNI exceeds 24 bits";
  let inner_frame = Bytes.to_string (Packet.serialize inner) in
  (* Source port is derived from the inner flow hash for ECMP spreading,
     as RFC 7348 recommends. *)
  let sport = 49152 + (Five_tuple.hash (Packet.flow inner) land 0x3fff) in
  Packet.make ~src_ip:outer_src_ip ~dst_ip:outer_dst_ip ~proto:Packet.Udp ~src_port:sport ~dst_port:vxlan_port
    (header vni ^ inner_frame)

let is_vxlan (p : Packet.t) = p.proto = Packet.Udp && p.dst_port = vxlan_port

let decapsulate (outer : Packet.t) =
  if not (is_vxlan outer) then Error "not a VXLAN packet (wrong proto/port)"
  else if String.length outer.payload < 8 then Error "truncated VXLAN header"
  else if Char.code outer.payload.[0] land 0x08 = 0 then Error "VNI-valid flag not set"
  else begin
    let vni =
      (Char.code outer.payload.[4] lsl 16) lor (Char.code outer.payload.[5] lsl 8) lor Char.code outer.payload.[6]
    in
    let inner_frame = String.sub outer.payload 8 (String.length outer.payload - 8) in
    match Packet.parse (Bytes.of_string inner_frame) with
    | Ok inner -> Ok { vni; outer_src_ip = outer.src_ip; outer_dst_ip = outer.dst_ip; inner }
    | Error e -> Error (Format.asprintf "inner frame: %a" Packet.pp_parse_error e)
  end
