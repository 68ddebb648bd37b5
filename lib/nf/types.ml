type verdict = Forward of Net.Packet.t | Drop of string
type probe = region:int -> index:int -> unit
type t = { name : string; process : Net.Packet.t -> verdict }

let is_drop = function Drop _ -> true | Forward _ -> false
