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

let to_string t =
  Printf.sprintf "%s:%d -> %s:%d /%d" (Ipv4_addr.to_string t.src_ip) t.src_port (Ipv4_addr.to_string t.dst_ip)
    t.dst_port t.proto

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
