(** Decimal integers written straight into a byte buffer, as
    [string_of_int] prints them, for the flow-key and address printers on
    the per-packet path (no [Printf], no intermediate strings). *)

(** [width n] is [String.length (string_of_int n)]. *)
val width : int -> int

(** [put b pos n] writes [string_of_int n] into [b] at [pos] and returns
    the position just past it.  [b] must have [width n] bytes free. *)
val put : bytes -> int -> int -> int
