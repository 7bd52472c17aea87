(* In-memory span recorder for the traced run. A span is a call into one
   layer's public function, made from the benchmark's own code: name,
   start, end, parent span and request id. Spans are written out at the
   end as Chrome-trace JSONL; self time is a span's duration minus the
   time its direct children cover. *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (* -1 for a root *)
  start_ns : int64;
  end_ns : int64;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

(* [span t ~name ~req ?parent f] runs [f id] inside a new span [id], so
   [f] can hang child spans on it. *)
let span t ~name ~req ?(parent = -1) f =
  let id = t.next in
  t.next <- id + 1;
  let start_ns = Util.Timer.now_ns () in
  let r = f id in
  let end_ns = Util.Timer.now_ns () in
  t.spans <- { id; name; req; parent; start_ns; end_ns } :: t.spans;
  r

(* The span closed last. *)
let last t = List.hd t.spans

let dur_s s = Int64.to_float (Int64.sub s.end_ns s.start_ns) *. 1e-9

(* Durations of every span called [name], in seconds. *)
let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (dur_s s) else None) t.spans

(* Self time per span name, in seconds, with the children's total
   subtracted from each parent. *)
let self_times t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur_s s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    t.spans;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let own = dur_s s -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      Hashtbl.replace self s.name
        (Float.max 0. own +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    t.spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}\n"
        (Stats.json_string s.name)
        (Int64.to_float s.start_ns /. 1e3)
        (Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1e3)
        s.id s.parent s.req)
    (List.rev t.spans);
  close_out oc
