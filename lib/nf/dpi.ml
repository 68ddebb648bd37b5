type t = { ac : Aho_corasick.t; probe : Types.probe option }

(* The shallow automaton states are compiled to dense DFA rows, like the
   SIMD crate the paper uses; 2048 rows = 4 MB, within the DPI graph
   budget of Table 7. *)
let create ?probe patterns =
  { ac = Aho_corasick.compile ~dense_states:2048 (Aho_corasick.build patterns); probe }

let inspect t (pkt : Net.Packet.t) =
  let on_state = Option.map (fun probe state -> probe ~region:0 ~index:state) t.probe in
  Aho_corasick.scan ?on_state t.ac pkt.payload

let nf t =
  {
    Types.name = "DPI";
    process = (fun pkt -> if inspect t pkt > 0 then Types.Drop "pattern match" else Types.Forward pkt);
  }

let automaton t = t.ac
