type proto = Tcp | Udp

type t = {
  src_mac : string;
  dst_mac : string;
  src_ip : Ipv4_addr.t;
  dst_ip : Ipv4_addr.t;
  proto : proto;
  src_port : int;
  dst_port : int;
  ttl : int;
  payload : string;
}

let default_src_mac = "\x02\x00\x00\x00\x00\x01"
let default_dst_mac = "\x02\x00\x00\x00\x00\x02"
let ethertype_ipv4 = 0x0800

let make ?(ttl = 64) ~src_ip ~dst_ip ~proto ~src_port ~dst_port payload =
  if src_port < 0 || src_port > 0xffff || dst_port < 0 || dst_port > 0xffff then invalid_arg "Packet.make: bad port";
  { src_mac = default_src_mac; dst_mac = default_dst_mac; src_ip; dst_ip; proto; src_port; dst_port; ttl; payload }

let proto_number = function Tcp -> 6 | Udp -> 17

let flow t =
  Five_tuple.make ~src_ip:t.src_ip ~dst_ip:t.dst_ip ~proto:(proto_number t.proto) ~src_port:t.src_port
    ~dst_port:t.dst_port

let eth_len = 14
let ipv4_len = 20
let l4_header_len = function Tcp -> 20 | Udp -> 8

let wire_length t = eth_len + ipv4_len + l4_header_len t.proto + String.length t.payload

let set_u16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 1) (Char.chr (v land 0xff))

let get_u16 b off = (Char.code (Bytes.get b off) lsl 8) lor Char.code (Bytes.get b (off + 1))

let set_u32 b off v =
  set_u16 b off ((v lsr 16) land 0xffff);
  set_u16 b (off + 2) (v land 0xffff)

let get_u32 b off = (get_u16 b off lsl 16) lor get_u16 b (off + 2)

(* One's-complement sum of the TCP/UDP pseudo-header. *)
let pseudo_header_sum t ~l4_len =
  let b = Bytes.create 12 in
  set_u32 b 0 t.src_ip;
  set_u32 b 4 t.dst_ip;
  Bytes.set b 8 '\000';
  Bytes.set b 9 (Char.chr (proto_number t.proto));
  set_u16 b 10 l4_len;
  Checksum.ones_sum b ~pos:0 ~len:12

let serialize t =
  let l4_len = l4_header_len t.proto + String.length t.payload in
  let total = wire_length t in
  let b = Bytes.make total '\000' in
  (* Ethernet *)
  Bytes.blit_string t.dst_mac 0 b 0 6;
  Bytes.blit_string t.src_mac 0 b 6 6;
  set_u16 b 12 ethertype_ipv4;
  (* IPv4 *)
  let ip = eth_len in
  Bytes.set b ip '\x45';
  set_u16 b (ip + 2) (ipv4_len + l4_len);
  Bytes.set b (ip + 8) (Char.chr (t.ttl land 0xff));
  Bytes.set b (ip + 9) (Char.chr (proto_number t.proto));
  set_u32 b (ip + 12) t.src_ip;
  set_u32 b (ip + 16) t.dst_ip;
  set_u16 b (ip + 10) (Checksum.checksum b ~pos:ip ~len:ipv4_len);
  (* L4 *)
  let l4 = ip + ipv4_len in
  set_u16 b l4 t.src_port;
  set_u16 b (l4 + 2) t.dst_port;
  (match t.proto with
  | Udp -> set_u16 b (l4 + 4) l4_len
  | Tcp ->
    (* Minimal TCP header: data offset 5, flags ACK. *)
    Bytes.set b (l4 + 12) '\x50';
    Bytes.set b (l4 + 13) '\x10');
  Bytes.blit_string t.payload 0 b (l4 + l4_header_len t.proto) (String.length t.payload);
  let ck_off = match t.proto with Tcp -> l4 + 16 | Udp -> l4 + 6 in
  let sum = Checksum.ones_sum ~init:(pseudo_header_sum t ~l4_len) b ~pos:l4 ~len:l4_len in
  set_u16 b ck_off (Checksum.finish sum);
  b

type parse_error =
  | Truncated of string
  | Bad_version of int
  | Unsupported_protocol of int
  | Bad_ipv4_checksum
  | Bad_l4_checksum

let pp_parse_error fmt = function
  | Truncated what -> Format.fprintf fmt "truncated %s" what
  | Bad_version v -> Format.fprintf fmt "bad IP version %d" v
  | Unsupported_protocol p -> Format.fprintf fmt "unsupported IP protocol %d" p
  | Bad_ipv4_checksum -> Format.fprintf fmt "bad IPv4 header checksum"
  | Bad_l4_checksum -> Format.fprintf fmt "bad TCP/UDP checksum"

let ( let* ) = Result.bind

let parse ?(verify_checksums = true) b =
  let len = Bytes.length b in
  let* () = if len < eth_len + ipv4_len then Error (Truncated "ethernet/ip header") else Ok () in
  let dst_mac = Bytes.sub_string b 0 6 and src_mac = Bytes.sub_string b 6 6 in
  let ip = eth_len in
  let vihl = Char.code (Bytes.get b ip) in
  let* () = if vihl lsr 4 <> 4 then Error (Bad_version (vihl lsr 4)) else Ok () in
  let ihl = (vihl land 0xf) * 4 in
  let* () = if ihl < 20 || len < ip + ihl then Error (Truncated "ipv4 options") else Ok () in
  let total_len = get_u16 b (ip + 2) in
  let* () = if len < ip + total_len then Error (Truncated "ipv4 body") else Ok () in
  let* () =
    if verify_checksums && Checksum.checksum b ~pos:ip ~len:ihl <> 0 then Error Bad_ipv4_checksum else Ok ()
  in
  let proto_num = Char.code (Bytes.get b (ip + 9)) in
  let* proto =
    match proto_num with 6 -> Ok Tcp | 17 -> Ok Udp | p -> Error (Unsupported_protocol p)
  in
  let ttl = Char.code (Bytes.get b (ip + 8)) in
  let src_ip = get_u32 b (ip + 12) and dst_ip = get_u32 b (ip + 16) in
  let l4 = ip + ihl in
  let l4_len = total_len - ihl in
  let hdr = l4_header_len proto in
  let* () = if l4_len < hdr then Error (Truncated "l4 header") else Ok () in
  let src_port = get_u16 b l4 and dst_port = get_u16 b (l4 + 2) in
  let t =
    { src_mac; dst_mac; src_ip; dst_ip; proto; src_port; dst_port; ttl;
      payload = Bytes.sub_string b (l4 + hdr) (l4_len - hdr) }
  in
  let* () =
    if not verify_checksums then Ok ()
    else begin
      let sum = Checksum.ones_sum ~init:(pseudo_header_sum t ~l4_len) b ~pos:l4 ~len:l4_len in
      if Checksum.finish sum <> 0 then Error Bad_l4_checksum else Ok ()
    end
  in
  Ok t

let equal a b = a = b

let pp fmt t =
  Format.fprintf fmt "%a ttl=%d len=%d" Five_tuple.pp (flow t) t.ttl (String.length t.payload)
