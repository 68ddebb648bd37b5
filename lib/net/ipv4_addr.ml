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

let octet t i = (t lsr (8 * (3 - i))) land 0xff

(* Dotted quad: each octet's decimal digits, written into one exact-size
   buffer. *)
let to_string t =
  let len = ref 3 in
  for i = 0 to 3 do
    len := !len + Decimal.width (octet t i)
  done;
  let b = Bytes.create !len in
  let pos = ref 0 in
  for i = 0 to 3 do
    if i > 0 then begin
      Bytes.set b !pos '.';
      incr pos
    end;
    pos := Decimal.put b !pos (octet t i)
  done;
  Bytes.unsafe_to_string b

let in_prefix addr ~prefix ~len =
  if len < 0 || len > 32 then invalid_arg "Ipv4_addr.in_prefix";
  if len = 0 then true
  else begin
    let mask = 0xffffffff lxor ((1 lsl (32 - len)) - 1) in
    addr land mask = prefix land mask
  end
