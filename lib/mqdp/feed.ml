(* Hardened ingestion frontend: reorder buffer + fault policies + overload
   degradation + checkpoint/restore. See feed.mli for the contract.

   Determinism is the load-bearing property: every decision depends only
   on (config, admitted stream so far), and the checkpoint captures that
   state completely, so crash → restore → replay is bit-identical to an
   uninterrupted run. Nothing here may consult wall-clock time or global
   randomness. *)

type policy =
  | Drop
  | Clamp
  | Raise

type config = {
  reorder_window : int;
  late : policy;
  duplicate : policy;
  non_finite : policy;
  overload_budget : int option;
}

let default_config =
  {
    reorder_window = 64;
    late = Drop;
    duplicate = Drop;
    non_finite = Drop;
    overload_budget = None;
  }

type counters = {
  accepted : int;
  released : int;
  reordered : int;
  late_dropped : int;
  late_clamped : int;
  duplicate_dropped : int;
  non_finite_dropped : int;
  non_finite_clamped : int;
  rejected : int;
  degraded_labels : int;
  shed : int;
}

type t = {
  cfg : config;
  engine : Online.t;
  buffer : Staging.t;  (* staged posts, ascending by (value, id) *)
  seen : Util.Id_log.t;  (* ids ever admitted; append-only, so a snapshot
                            freezes it in O(1) *)
  mutable watermark : float;  (* newest value released to the engine *)
  mutable high : float;  (* newest value ever admitted (reorder signal) *)
  mutable c_accepted : int;
  mutable c_released : int;
  mutable c_reordered : int;
  mutable c_late_dropped : int;
  mutable c_late_clamped : int;
  mutable c_duplicate_dropped : int;
  mutable c_non_finite_dropped : int;
  mutable c_non_finite_clamped : int;
  mutable c_rejected : int;
  mutable c_shed : int;
}

exception Rejected of { id : int; what : string }
exception Corrupt of string
exception Unsupported_version of { found : string; expected : int }

(* Registry mirrors of the per-feed counters. These count events observed
   by this process: restoring a checkpoint does NOT replay its counter
   block into the registry (that would double-count across a crash), so
   the registry view is "work done here", the checkpoint view is "work
   done ever". *)
let m_accepted = Util.Telemetry.counter "feed.accepted"
let m_released = Util.Telemetry.counter "feed.released"
let m_reordered = Util.Telemetry.counter "feed.reordered"
let m_late_dropped = Util.Telemetry.counter "feed.late_dropped"
let m_late_clamped = Util.Telemetry.counter "feed.late_clamped"
let m_duplicate_dropped = Util.Telemetry.counter "feed.duplicate_dropped"
let m_non_finite_dropped = Util.Telemetry.counter "feed.non_finite_dropped"
let m_non_finite_clamped = Util.Telemetry.counter "feed.non_finite_clamped"
let m_rejected = Util.Telemetry.counter "feed.rejected"
let m_shed = Util.Telemetry.counter "feed.shed"
let m_buffer_depth = Util.Telemetry.gauge "feed.buffer_depth"

let validate_config cfg =
  if cfg.reorder_window < 0 then invalid_arg "Feed.create: negative reorder_window";
  match cfg.overload_budget with
  | Some b when b < 1 -> invalid_arg "Feed.create: overload_budget < 1"
  | Some _ | None -> ()

let make ?(seen = Util.Id_log.create ()) cfg engine =
  {
    cfg;
    engine;
    buffer = Staging.create ();
    seen;
    watermark = neg_infinity;
    high = neg_infinity;
    c_accepted = 0;
    c_released = 0;
    c_reordered = 0;
    c_late_dropped = 0;
    c_late_clamped = 0;
    c_duplicate_dropped = 0;
    c_non_finite_dropped = 0;
    c_non_finite_clamped = 0;
    c_rejected = 0;
    c_shed = 0;
  }

let create ?(config = default_config) ?(window = false) ~lambda mode =
  validate_config config;
  let w = if window then Some (Window_index.create (Coverage.Fixed lambda)) else None in
  make config (Online.create ?window:w ~lambda mode)

let window t = Online.window t.engine

let counters t =
  {
    accepted = t.c_accepted;
    released = t.c_released;
    reordered = t.c_reordered;
    late_dropped = t.c_late_dropped;
    late_clamped = t.c_late_clamped;
    duplicate_dropped = t.c_duplicate_dropped;
    non_finite_dropped = t.c_non_finite_dropped;
    non_finite_clamped = t.c_non_finite_clamped;
    rejected = t.c_rejected;
    degraded_labels = Online.degraded_count t.engine;
    shed = t.c_shed;
  }

let config t = t.cfg
let engine t = t.engine
let buffered t = Staging.length t.buffer
let watermark t = if t.watermark = neg_infinity then None else Some t.watermark

let reject t ~id what =
  t.c_rejected <- t.c_rejected + 1;
  Util.Telemetry.incr m_rejected;
  raise (Rejected { id; what })

(* Demote labels until the live deadline count fits the budget. The count,
   not the raw heap length, is the signal: it is identical before and
   after a restore, which the bit-identical replay guarantee needs. *)
let rec shed_overload t acc =
  match t.cfg.overload_budget with
  | None -> acc
  | Some budget ->
    if Online.pending_labels t.engine <= budget then acc
    else begin
      let now =
        match Online.last_arrival t.engine with
        | Some v -> v
        | None -> neg_infinity
      in
      match Online.degrade_earliest t.engine ~now with
      | None -> acc
      | Some (_, shed, es) ->
        t.c_shed <- t.c_shed + shed;
        Util.Telemetry.add m_shed shed;
        shed_overload t (acc @ es)
    end

let release t post =
  let es = Online.push t.engine post in
  t.watermark <- post.Post.value;
  t.c_released <- t.c_released + 1;
  Util.Telemetry.incr m_released;
  es

let drain_over t limit =
  let rec loop acc =
    if Staging.length t.buffer <= limit then acc
    else loop (acc @ release t (Staging.pop t.buffer))
  in
  let acc = loop [] in
  Util.Telemetry.set m_buffer_depth (Staging.length t.buffer);
  shed_overload t acc

let push t post =
  let id = post.Post.id in
  let value = post.Post.value in
  (* 1. Non-finite timestamps (includes NaN smuggled past Post.make via a
     record update). *)
  let post, value =
    if Float.is_finite value then (post, value)
    else begin
      match t.cfg.non_finite with
      | Raise -> reject t ~id (Printf.sprintf "non-finite timestamp %h" value)
      | Drop ->
        t.c_non_finite_dropped <- t.c_non_finite_dropped + 1;
        Util.Telemetry.incr m_non_finite_dropped;
        raise_notrace Exit
      | Clamp ->
        let v = if t.watermark = neg_infinity then 0. else t.watermark in
        t.c_non_finite_clamped <- t.c_non_finite_clamped + 1;
        Util.Telemetry.incr m_non_finite_clamped;
        ({ post with Post.value = v }, v)
    end
  in
  (* 2. Duplicates: an id the frontend already admitted. *)
  if Util.Id_log.mem t.seen id then begin
    match t.cfg.duplicate with
    | Raise -> reject t ~id "duplicate id"
    | Drop | Clamp ->
      t.c_duplicate_dropped <- t.c_duplicate_dropped + 1;
      Util.Telemetry.incr m_duplicate_dropped;
      raise_notrace Exit
  end;
  (* 3. Late: older than the release watermark — beyond what the reorder
     buffer can absorb. *)
  let post, value =
    if value >= t.watermark then (post, value)
    else begin
      match t.cfg.late with
      | Raise ->
        reject t ~id
          (Printf.sprintf "late arrival: %g behind watermark %g" value t.watermark)
      | Drop ->
        t.c_late_dropped <- t.c_late_dropped + 1;
        Util.Telemetry.incr m_late_dropped;
        raise_notrace Exit
      | Clamp ->
        t.c_late_clamped <- t.c_late_clamped + 1;
        Util.Telemetry.incr m_late_clamped;
        ({ post with Post.value = t.watermark }, t.watermark)
    end
  in
  Util.Id_log.add t.seen id;
  t.c_accepted <- t.c_accepted + 1;
  Util.Telemetry.incr m_accepted;
  if value < t.high then begin
    t.c_reordered <- t.c_reordered + 1;
    Util.Telemetry.incr m_reordered
  end
  else t.high <- value;
  Staging.push t.buffer post;
  Util.Telemetry.set m_buffer_depth (Staging.length t.buffer);
  (post, drain_over t t.cfg.reorder_window)

type outcome = { admitted : Post.t option; emissions : Online.emission list }

let push t post =
  match push t post with
  | admitted, emissions -> { admitted = Some admitted; emissions }
  | exception Exit -> { admitted = None; emissions = [] }

let finish t =
  let es = drain_over t 0 in
  es @ Online.finish t.engine

(* ------------------------------------------------------------------ *)
(* Snapshots: the complete frontend + engine state as immutable data.
   The admitted-id and emitted-id sets are append-only logs frozen in
   O(1) and the pending lists immutable, so they are captured by
   reference; the staged posts (at most [reorder_window]) become a sorted
   list and the window a flat array copy. Taking one therefore costs
   O(window + labels + staged), independent of how long the stream has
   run. Rebuilding a feed thaws the two logs: O(admitted + emitted ids). *)

type snapshot = {
  s_cfg : config;
  s_counters : counters;
  s_watermark : float;
  s_high : float;
  s_seen : Util.Id_log.frozen;
  s_staged : Post.t list;  (* ascending by (value, id) *)
  s_engine : Online.snapshot;
  s_window : Window_index.snapshot option;
}

let snapshot t =
  {
    s_cfg = t.cfg;
    s_counters = counters t;
    s_watermark = t.watermark;
    s_high = t.high;
    s_seen = Util.Id_log.freeze t.seen;
    s_staged = Staging.to_list t.buffer;
    s_engine = Online.export t.engine;
    s_window = Option.map Window_index.export (Online.window t.engine);
  }

let of_snapshot s =
  let engine =
    try
      let window =
        Option.map
          (Window_index.import (Coverage.Fixed s.s_engine.Online.snap_lambda))
          s.s_window
      in
      Online.import ?window s.s_engine
    with Invalid_argument m -> raise (Corrupt m)
  in
  let t = make ~seen:(Util.Id_log.thaw s.s_seen) s.s_cfg engine in
  let c = s.s_counters in
  t.watermark <- s.s_watermark;
  t.high <- s.s_high;
  List.iter (Staging.push t.buffer) s.s_staged;
  t.c_accepted <- c.accepted;
  t.c_released <- c.released;
  t.c_reordered <- c.reordered;
  t.c_late_dropped <- c.late_dropped;
  t.c_late_clamped <- c.late_clamped;
  t.c_duplicate_dropped <- c.duplicate_dropped;
  t.c_non_finite_dropped <- c.non_finite_dropped;
  t.c_non_finite_clamped <- c.non_finite_clamped;
  t.c_rejected <- c.rejected;
  t.c_shed <- c.shed;
  t

(* ------------------------------------------------------------------ *)
(* Checkpoint codec: line-oriented text, magic + version header, IEEE
   bit-pattern floats, FNV-1a-64 checksum trailer. The writer appends
   straight into one Buffer (Text_codec) — no Printf, no intermediate
   strings.                                                            *)

let magic = "mqdp-feed-checkpoint"
let version = 2

let policy_name = function Drop -> "drop" | Clamp -> "clamp" | Raise -> "raise"

open Text_codec

(* "<key> <count> <id> <id> ...": the separator after the count is
   written even when the list is empty, as the format always has. *)
let add_id_line b key count iter =
  Buffer.add_string b key;
  Buffer.add_char b ' ';
  add_int b count;
  Buffer.add_char b ' ';
  let first = ref true in
  iter (fun id ->
      if not !first then Buffer.add_char b ' ';
      first := false;
      add_int b id);
  Buffer.add_char b '\n'

let add_window b (ws : Window_index.snapshot) =
  let n = Array.length ws.Window_index.snap_ids in
  Buffer.add_string b "window";
  add_ints b [ ws.Window_index.snap_expired; n; Bool.to_int ws.Window_index.snap_guarded ];
  Buffer.add_char b ' ';
  add_float b ws.Window_index.snap_guard_value;
  Buffer.add_char b ' ';
  add_int b ws.Window_index.snap_guard_id;
  Buffer.add_char b '\n';
  let offsets = ws.Window_index.snap_offsets and labels = ws.Window_index.snap_labels in
  for i = 0 to n - 1 do
    Buffer.add_string b "p ";
    add_int b ws.Window_index.snap_ids.(i);
    Buffer.add_char b ' ';
    add_float b ws.Window_index.snap_values.(i);
    Buffer.add_char b ' ';
    let lo = offsets.(i) and hi = offsets.(i + 1) in
    if lo = hi then Buffer.add_char b '-'
    else
      for k = lo to hi - 1 do
        if k > lo then Buffer.add_char b ',';
        add_int b labels.(k)
      done;
    Buffer.add_char b '\n'
  done

let encode s =
  let b = Buffer.create 4096 in
  let str = Buffer.add_string b and chr = Buffer.add_char b in
  str magic;
  str " v";
  add_int b version;
  let cfg = s.s_cfg in
  str "\nconfig ";
  add_int b cfg.reorder_window;
  List.iter
    (fun p ->
      chr ' ';
      str (policy_name p))
    [ cfg.late; cfg.duplicate; cfg.non_finite ];
  chr ' ';
  (match cfg.overload_budget with None -> str "none" | Some n -> add_int b n);
  let c = s.s_counters in
  str "\ncounters";
  add_ints b
    [
      c.accepted; c.released; c.reordered; c.late_dropped; c.late_clamped;
      c.duplicate_dropped; c.non_finite_dropped; c.non_finite_clamped; c.rejected;
      c.shed;
    ];
  str "\nwatermark ";
  add_float b s.s_watermark;
  chr ' ';
  add_float b s.s_high;
  chr '\n';
  add_id_line b "seen" (Util.Id_log.frozen_cardinal s.s_seen) (fun f ->
      Util.Id_log.iter_ascending f s.s_seen);
  str "buffer ";
  add_int b (List.length s.s_staged);
  chr '\n';
  List.iter (add_post_line b) s.s_staged;
  let e = s.s_engine in
  str "engine ";
  add_float b e.Online.snap_lambda;
  (match e.Online.snap_mode with
  | Online.Instant -> str " instant"
  | Online.Delayed { tau; plus } ->
    str " delayed ";
    add_float b tau;
    str (if plus then " 1" else " 0"));
  str "\nlast ";
  (match e.Online.snap_last_time with None -> str "none" | Some v -> add_float b v);
  chr '\n';
  add_id_line b "emitted" (Util.Id_log.frozen_cardinal e.Online.snap_emitted) (fun f ->
      Util.Id_log.iter_ascending f e.Online.snap_emitted);
  add_id_line b "degraded" (List.length e.Online.snap_degraded) (fun f ->
      List.iter f e.Online.snap_degraded);
  str "labels ";
  add_int b (List.length e.Online.snap_labels);
  chr '\n';
  List.iter
    (fun ls ->
      str "label";
      add_ints b [ ls.Online.snap_label; List.length ls.Online.snap_pending ];
      str "\nlast ";
      (match ls.Online.snap_last_out with None -> str "none" | Some p -> add_post b p);
      chr '\n';
      List.iter (add_post_line b) ls.Online.snap_pending)
    e.Online.snap_labels;
  (match s.s_window with None -> str "window none\n" | Some ws -> add_window b ws);
  let sum = Util.Hash.fnv1a64 (Buffer.contents b) in
  str "checksum ";
  Util.Hash.add_hex64 b sum;
  chr '\n';
  Buffer.contents b

let checkpoint t = encode (snapshot t)

(* --- parsing --- *)

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let float_of_hex s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some bits when String.length s = 16 -> Int64.float_of_bits bits
  | Some _ | None -> corrupt "bad float bit pattern %S" s

let int_field what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> corrupt "bad integer %S in %s" s what

let policy_of_name = function
  | "drop" -> Drop
  | "clamp" -> Clamp
  | "raise" -> Raise
  | s -> corrupt "unknown policy %S" s

let post_of_fields = function
  | [ id; value; labels ] ->
    let labels =
      if labels = "-" then []
      else List.map (int_field "labels") (String.split_on_char ',' labels)
    in
    if List.exists (fun a -> a < 0) labels then corrupt "negative label in post";
    let value = float_of_hex value in
    (* Admitted posts always carry finite timestamps (the non-finite
       policy ran before admission), so anything else is corruption. *)
    if not (Float.is_finite value) then corrupt "non-finite post timestamp";
    Post.make ~id:(int_field "post id" id) ~value ~labels:(Label_set.of_list labels)
  | fields -> corrupt "bad post line with %d fields" (List.length fields)

type cursor = { lines : string array; mutable at : int }

let next cur =
  if cur.at >= Array.length cur.lines then corrupt "truncated checkpoint";
  let l = cur.lines.(cur.at) in
  cur.at <- cur.at + 1;
  l

let expect cur key =
  match String.split_on_char ' ' (next cur) with
  | k :: rest when k = key -> rest
  | k :: _ -> corrupt "expected %S line, found %S" key k
  | [] -> corrupt "expected %S line, found an empty line" key

let int_list what n fields =
  if List.length fields < n then corrupt "truncated %s list" what
  else List.filteri (fun i _ -> i < n) fields |> List.map (int_field what)

let decode text =
  (* Split off and verify the checksum trailer first: everything else is
     only trusted once the body hashes correctly. *)
  let body, sum =
    match String.rindex_opt (String.trim text) '\n' with
    | None -> corrupt "not a checkpoint (single line)"
    | Some i ->
      let trimmed = String.trim text in
      (String.sub trimmed 0 (i + 1), String.sub trimmed (i + 1) (String.length trimmed - i - 1))
  in
  (match String.split_on_char ' ' sum with
  | [ "checksum"; hex ] ->
    if Util.Hash.hex64 (Util.Hash.fnv1a64 body) <> hex then corrupt "checksum mismatch"
  | _ -> corrupt "missing checksum trailer");
  let cur = { lines = Array.of_list (String.split_on_char '\n' (String.trim body)); at = 0 } in
  (match String.split_on_char ' ' (next cur) with
  | [ m; v ] when m = magic ->
    (* A wrong version on an otherwise intact checkpoint (checksum and
       magic already validated) is not corruption — it is a format
       mismatch the caller may want to handle (migrate, warn, refuse)
       distinctly, hence the typed exception. *)
    if v <> Printf.sprintf "v%d" version then
      raise (Unsupported_version { found = v; expected = version })
  | _ -> corrupt "bad magic");
  let cfg =
    match expect cur "config" with
    | [ window; late; dup; nonfinite; budget ] ->
      {
        reorder_window = int_field "reorder_window" window;
        late = policy_of_name late;
        duplicate = policy_of_name dup;
        non_finite = policy_of_name nonfinite;
        overload_budget =
          (if budget = "none" then None else Some (int_field "overload_budget" budget));
      }
    | _ -> corrupt "bad config line"
  in
  (try validate_config cfg with Invalid_argument m -> corrupt "%s" m);
  let counters =
    match List.map (int_field "counters") (expect cur "counters") with
    | [ accepted; released; reordered; late_dropped; late_clamped; duplicate_dropped;
        non_finite_dropped; non_finite_clamped; rejected; shed ] ->
      {
        accepted;
        released;
        reordered;
        late_dropped;
        late_clamped;
        duplicate_dropped;
        non_finite_dropped;
        non_finite_clamped;
        rejected;
        degraded_labels = 0 (* not stored: the engine's degraded count, below *);
        shed;
      }
    | _ -> corrupt "bad counters line"
  in
  let watermark, high =
    match expect cur "watermark" with
    | [ w; h ] -> (float_of_hex w, float_of_hex h)
    | _ -> corrupt "bad watermark line"
  in
  let seen =
    match expect cur "seen" with
    | n :: rest -> int_list "seen" (int_field "seen count" n) rest
    | [] -> corrupt "bad seen line"
  in
  let staged =
    match expect cur "buffer" with
    | [ n ] ->
      List.init (int_field "buffer count" n) (fun _ -> post_of_fields (expect cur "p"))
      |> List.sort Post.compare_by_value
    | _ -> corrupt "bad buffer line"
  in
  let lambda, mode =
    match expect cur "engine" with
    | [ lambda; "instant" ] -> (float_of_hex lambda, Online.Instant)
    | [ lambda; "delayed"; tau; plus ] ->
      ( float_of_hex lambda,
        Online.Delayed
          {
            tau = float_of_hex tau;
            plus =
              (match plus with
              | "0" -> false
              | "1" -> true
              | s -> corrupt "bad plus flag %S" s);
          } )
    | _ -> corrupt "bad engine line"
  in
  let last_time =
    match expect cur "last" with
    | [ "none" ] -> None
    | [ v ] -> Some (float_of_hex v)
    | _ -> corrupt "bad last line"
  in
  let emitted =
    match expect cur "emitted" with
    | n :: rest -> int_list "emitted" (int_field "emitted count" n) rest
    | [] -> corrupt "bad emitted line"
  in
  let degraded =
    match expect cur "degraded" with
    | n :: rest ->
      int_list "degraded" (int_field "degraded count" n) rest |> List.sort_uniq Int.compare
    | [] -> corrupt "bad degraded line"
  in
  let num_labels =
    match expect cur "labels" with
    | [ n ] -> int_field "labels count" n
    | _ -> corrupt "bad labels line"
  in
  let snap_labels =
    List.init num_labels (fun _ ->
        let label, pending_count =
          match expect cur "label" with
          | [ a; k ] -> (int_field "label" a, int_field "pending count" k)
          | _ -> corrupt "bad label line"
        in
        let last_out =
          match expect cur "last" with
          | [ "none" ] -> None
          | fields -> Some (post_of_fields fields)
        in
        let pending = List.init pending_count (fun _ -> post_of_fields (expect cur "p")) in
        { Online.snap_label = label; snap_pending = pending; snap_last_out = last_out })
  in
  let window =
    match expect cur "window" with
    | [ "none" ] -> None
    | [ expired; count; guarded; guardv; guardid ] ->
      let posts =
        Array.init (int_field "window post count" count) (fun _ ->
            post_of_fields (expect cur "p"))
      in
      let offsets = Array.make (Array.length posts + 1) 0 in
      Array.iteri
        (fun i p -> offsets.(i + 1) <- offsets.(i) + Label_set.cardinal p.Post.labels)
        posts;
      let labels = Array.make offsets.(Array.length posts) 0 in
      Array.iteri
        (fun i p ->
          List.iteri (fun k a -> labels.(offsets.(i) + k) <- a) (Label_set.to_list p.Post.labels))
        posts;
      Some
        {
          Window_index.snap_expired = int_field "window expired" expired;
          snap_ids = Array.map (fun p -> p.Post.id) posts;
          snap_values = Array.map (fun p -> p.Post.value) posts;
          snap_offsets = offsets;
          snap_labels = labels;
          snap_guard_value = float_of_hex guardv;
          snap_guard_id = int_field "window guard id" guardid;
          snap_guarded =
            (match guarded with
            | "0" -> false
            | "1" -> true
            | s -> corrupt "bad window guard flag %S" s);
        }
    | _ -> corrupt "bad window line"
  in
  if cur.at <> Array.length cur.lines then corrupt "trailing garbage after window table";
  {
    s_cfg = cfg;
    s_counters = { counters with degraded_labels = List.length degraded };
    s_watermark = watermark;
    s_high = high;
    s_seen = Util.Id_log.of_list seen;
    s_staged = staged;
    s_engine =
      {
        Online.snap_lambda = lambda;
        snap_mode = mode;
        snap_last_time = last_time;
        snap_emitted = Util.Id_log.of_list emitted;
        snap_degraded = degraded;
        snap_labels;
      };
    s_window = window;
  }

let restore text = of_snapshot (decode text)

(* Crash-safe: temp + fsync + rename, so a process killed mid-write can
   tear only the ignored temp sibling, never the checkpoint itself. *)
let save_checkpoint ~path t = Util.Fs.atomic_write ~path (checkpoint t)

let load_checkpoint path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> restore (really_input_string ic (in_channel_length ic)))
