let rec width n = if n < 0 then String.length (string_of_int n) else if n < 10 then 1 else 1 + width (n / 10)

let put b pos n =
  if n < 0 then begin
    (* Negative values never reach the packet path; keep them simple. *)
    let s = string_of_int n in
    Bytes.blit_string s 0 b pos (String.length s);
    pos + String.length s
  end
  else begin
    let stop = pos + width n in
    let n = ref n in
    for i = stop - 1 downto pos do
      Bytes.set b i (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10
    done;
    stop
  end
