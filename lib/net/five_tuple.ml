type t = { src_ip : Ipv4_addr.t; dst_ip : Ipv4_addr.t; proto : int; src_port : int; dst_port : int }

let make ~src_ip ~dst_ip ~proto ~src_port ~dst_port = { src_ip; dst_ip; proto; src_port; dst_port }

let equal a b =
  a.src_ip = b.src_ip && a.dst_ip = b.dst_ip && a.proto = b.proto && a.src_port = b.src_port && a.dst_port = b.dst_port

(* SplitMix-style finalizer over the packed fields; flow keys feed hash
   tables sized in the hundreds of thousands, so the low bits must mix. *)
let hash t =
  let mix z =
    (* 62-bit-safe variant of the SplitMix64 finalizer constants. *)
    let z = (z lxor (z lsr 30)) * 0x2545F4914F6CDD1D in
    let z = (z lxor (z lsr 27)) * 0x1B873593CC9E2D51 in
    z lxor (z lsr 31)
  in
  let a = mix ((t.src_ip lsl 16) lxor t.src_port) in
  let b = mix ((t.dst_ip lsl 16) lxor t.dst_port lxor (t.proto lsl 48)) in
  mix (a lxor (b * 0x9E3779B97F4A7C1)) land max_int

let reverse t =
  { src_ip = t.dst_ip; dst_ip = t.src_ip; proto = t.proto; src_port = t.dst_port; dst_port = t.src_port }

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* ["<src_ip>:<src_port> -> <dst_ip>:<dst_port> /<proto>"], written
   into one exact-size buffer. *)
let to_string t =
  let src = Ipv4_addr.to_string t.src_ip and dst = Ipv4_addr.to_string t.dst_ip in
  let len =
    String.length src + 1 + Decimal.width t.src_port + 4 + String.length dst + 1 + Decimal.width t.dst_port + 2
    + Decimal.width t.proto
  in
  let b = Bytes.create len in
  let pos = put_string b 0 src in
  let pos = Decimal.put b (put_string b pos ":") t.src_port in
  let pos = put_string b (put_string b pos " -> ") dst in
  let pos = Decimal.put b (put_string b pos ":") t.dst_port in
  ignore (Decimal.put b (put_string b pos " /") t.proto);
  Bytes.unsafe_to_string b

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
