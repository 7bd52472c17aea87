(* Sample summaries shared by every phase: nearest-rank percentiles, the
   tail percentile a sample supports, and the metric records a run emits. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array; nan when empty. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs = pct (sorted xs) 50.

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* One named value with its unit and the number of samples behind it. *)
type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

(* JSON numbers: every digit the float has; non-finite values (which a
   well-formed run never produces) become null so the line stays JSON. *)
let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
