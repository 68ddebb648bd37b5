type t = int

let of_octets a b c d =
  let ok x = x >= 0 && x <= 255 in
  if not (ok a && ok b && ok c && ok d) then invalid_arg "Ipv4_addr.of_octets";
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> begin
    let oct x =
      match int_of_string_opt x with
      | Some v when v >= 0 && v <= 255 -> v
      | _ -> invalid_arg ("Ipv4_addr.of_string: " ^ s)
    in
    of_octets (oct a) (oct b) (oct c) (oct d)
  end
  | _ -> invalid_arg ("Ipv4_addr.of_string: " ^ s)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xff) ((t lsr 16) land 0xff) ((t lsr 8) land 0xff) (t land 0xff)

let in_prefix addr ~prefix ~len =
  if len < 0 || len > 32 then invalid_arg "Ipv4_addr.in_prefix";
  if len = 0 then true
  else begin
    let mask = 0xffffffff lxor ((1 lsl (32 - len)) - 1) in
    addr land mask = prefix land mask
  end
