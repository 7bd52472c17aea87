(* The traced run's per-layer breakdown, measured from outside the
   program. Two parts:

   1. (serving workloads) the same seeded script already ran against a
      --telemetry daemon; its closing STATS answer and the generator's
      own timings give the transport and daemon-side figures;
   2. an in-process replay of the same script: the benchmark calls
      Mqdp.Serve.exec_on itself, and, on the inputs each layer receives,
      the layers' public functions on a mirror of the fleet — Shard.offer
      and Shard.tick on mirror shards, Profile.take_report, Feed.push,
      Window_index push/expire/to_instance, Supervisor and Solver, Serve
      snapshots and Post_io. Every call is a span (name, start, end,
      parent, request id) kept in memory and written out as Chrome-trace
      JSONL.

   The journal layer is measured on the program's own code paths: two
   untraced replays of the same lines, one plain and one with Serve's
   session journal attached (fsync on), give the per-FEED append cost
   and the journal's bytes per command; a --state-dir daemon fed the same
   lines gives CHECKPOINT round trips (snapshot epoch, manifest and
   journal compaction).

   The replay's engine runs with one job, so its TICK time is directly
   comparable with the mirror's sequential Shard.tick calls; the layer
   waterfall subtracts mirror time from engine time to split the engine
   by layer. Tracing overhead is the traced engine time over the untraced
   replay of the same lines. *)

type result = {
  metrics : Stats.metric list;  (* every per-layer figure *)
  checks : (string * bool) list;
  report : string;  (* the human-readable traced-run report *)
}

(* The per-layer metrics every workload reports — BENCHMARK.json's
   per_layer list. *)
let per_layer =
  [ "serve.exec_feed_p50_us"; "serve.exec_feed_p99_us"; "serve.exec_tick_p50_ms";
    "serve.exec_tick_p99_ms"; "serve.exec_report_p50_us"; "serve.fanout_p50_us";
    "serve.alloc_bytes_per_post"; "shard.offer_us"; "shard.tick_p50_ms"; "shard.backlog_peak";
    "profile.process_us_per_post"; "profile.checkpoint_p50_us"; "profile.take_report_p50_us";
    "feed.push_p50_us"; "online.heap_ops_per_post"; "window_index.push_p50_us";
    "window_index.expire_p50_us"; "window_index.to_instance_p50_ms"; "solver.compile_p50_ms";
    "solver.solve_greedy_p50_ms"; "solver.solve_scanplus_p50_ms"; "greedy_sc.marks_per_pick";
    "scan.cache_hit_ratio"; "journal.append_p50_us"; "journal.append_p99_us";
    "journal.bytes_per_cmd"; "journal.persist_ms"; "recovery.snapshot_load_ms"; "post_io.load_ms";
    "trace.overhead_share"; "trace.unaccounted_share" ]

let m = Stats.metric

(* A line of the replayed script: which client sent it, and the line. *)
type line = { l_idx : int; l_conn : int; l_text : string }

let tokens s = String.split_on_char ' ' s |> List.filter (( <> ) "")

let profile_config (p : Work.profile) =
  {
    Mqdp.Profile.lambda = p.lambda;
    mode = p.mode;
    feed = Mqdp.Feed.default_config;
    window = p.window;
    checkpoint_every = Mqdp.Serve.default_config.Mqdp.Serve.checkpoint_every;
    max_restarts = Mqdp.Serve.default_config.Mqdp.Serve.max_restarts;
  }

let tau_of = function Mqdp.Online.Instant -> 0. | Mqdp.Online.Delayed { tau; _ } -> tau

(* Telemetry counters, read around the calls whose counts we want. *)
let counter name =
  List.fold_left
    (fun acc e ->
      match e with Util.Telemetry.Counter_entry (n, v) when n = name -> v | _ -> acc)
    0 (Util.Telemetry.snapshot ())

let counted f =
  Util.Telemetry.enable ();
  Fun.protect ~finally:Util.Telemetry.disable f

(* Per-sampled-profile probes: a Feed with the profile's settings, and a
   bare Window_index maintained the way Online maintains its mirror. *)
type probe = {
  pr : Work.profile;
  feed : Mqdp.Feed.t;
  win : Mqdp.Window_index.t;
  mutable last : float option;
  mutable pushed : int;
}

type replay = {
  trace : Trace.t;
  exec_s : (int, float) Hashtbl.t;  (* script idx -> engine exec seconds *)
  answers : (int, string list) Hashtbl.t;  (* script idx -> engine answer *)
  mutable wall : float;
  mutable posts : int;
  mutable deliveries : int;
  mutable emissions : int;
  mutable probe_pushes : int;
  mutable backlog_peak : int;
  mutable alloc : float;
  mutable heap_ops : int;
  mutable rung_first : int;
  mutable rung_total : int;
  mutable live_posts : int list;
  mutable snapshot_load : float;
  mutable last_checkpoint : (string list * int) option;  (* shard snapshots, journal gsn *)
  mutable query_exec : float list;
  mutable checkpoint_exec : float list;
  mutable recovery_replay : float option;
}

let shards = Mqdp.Serve.default_config.Mqdp.Serve.shards

(* A one-job engine configured like the daemon (journal with fsync in a
   fresh [state] directory when [durable]) and the two clients' sessions. *)
let replay_engine ~state ~durable =
  let engine = Mqdp.Serve.create { Mqdp.Serve.default_config with jobs = 1 } in
  Util.Fs.remove_tree state;
  Unix.mkdir state 0o755;
  if durable then Mqdp.Serve.attach_journal ~fsync:true engine ~dir:state ~covered:0;
  let sessions =
    if durable then [| Mqdp.Serve.session engine ~id:"pub"; Mqdp.Serve.session engine ~id:"sub" |]
    else [| Mqdp.Serve.new_session engine; Mqdp.Serve.new_session engine |]
  in
  (engine, sessions)

type plain = {
  total : float;  (* seconds in exec_on, all lines *)
  per_line : (int, float) Hashtbl.t;  (* script idx -> exec_on seconds *)
  journal_bytes : int;  (* size of the session journal at the end *)
  commands : int;  (* commands journaled (the journal's gsn) *)
}

(* Replay [lines] on an uninstrumented engine, timing each exec_on call.
   With [journal] the engine journals every command through Serve's own
   session journal, fsync on, in a fresh state directory — what a
   --state-dir daemon does. *)
let plain_replay ~work ~journal (lines : line list) =
  let state = Filename.concat work (if journal then "replay.journaled.state" else "replay.plain.state") in
  let engine, sessions = replay_engine ~state ~durable:journal in
  let per_line = Hashtbl.create 4096 in
  let total = ref 0. in
  List.iter
    (fun l ->
      let t0 = Util.Timer.now () in
      ignore (Mqdp.Serve.exec_on engine sessions.(l.l_conn) l.l_text);
      let dt = Util.Timer.now () -. t0 in
      total := !total +. dt;
      Hashtbl.replace per_line l.l_idx dt)
    lines;
  let commands = Mqdp.Serve.journal_gsn engine in
  Mqdp.Serve.detach_journal engine;
  let journal_bytes =
    if journal then (Unix.stat (Filename.concat state "sessions.journal")).Unix.st_size else 0
  in
  Mqdp.Serve.shutdown engine;
  { total = !total; per_line; journal_bytes; commands }

(* Compile + GreedySC + Scan+ on one instance, each a span. *)
let solver_probe t ~req ~parent inst lambda =
  let lam = Mqdp.Coverage.Fixed lambda in
  let idx = Trace.span t ~name:"solver.compile" ~req ~parent (fun _ -> Mqdp.Solver.compile inst lam) in
  counted (fun () ->
      ignore
        (Trace.span t ~name:"solver.solve_greedy" ~req ~parent (fun _ ->
             Mqdp.Solver.solve_compiled Mqdp.Solver.Greedy_sc idx));
      ignore
        (Trace.span t ~name:"solver.solve_scanplus" ~req ~parent (fun _ ->
             Mqdp.Solver.solve_compiled Mqdp.Solver.Scan_plus idx)))

let parse_post id value labels =
  { Work.id = int_of_string id; value = float_of_string value;
    labels = List.map int_of_string (String.split_on_char ',' labels) }

(* The traced in-process replay of [lines] over [fleet]. Each line is a
   [request] span; the engine's exec_on and every mirror/probe call on
   the same input are its children. *)
let traced_replay ~work ~durable (fleet : Work.profile array) ~sample (lines : line list) =
  let t = Trace.create () in
  let state = Filename.concat work "replay.state" in
  let engine, sessions = replay_engine ~state ~durable in
  let by_name = Hashtbl.create (Array.length fleet) in
  Array.iter (fun (p : Work.profile) -> Hashtbl.replace by_name p.name p) fleet;
  let by_label = Hashtbl.create 128 in
  Array.iter
    (fun (p : Work.profile) ->
      List.iter
        (fun l -> Hashtbl.replace by_label l (p :: Option.value ~default:[] (Hashtbl.find_opt by_label l)))
        p.labels)
    fleet;
  let mirror =
    Array.init shards (fun _ ->
        Mqdp.Shard.create
          { Mqdp.Shard.queue_capacity = Mqdp.Serve.default_config.Mqdp.Serve.queue_capacity;
            tick_steps = None })
  in
  let mirror_profiles = Hashtbl.create (Array.length fleet) in
  let probes = Hashtbl.create 16 in
  List.iter
    (fun (p : Work.profile) ->
      Hashtbl.replace probes p.name
        {
          pr = p;
          feed = Mqdp.Feed.create ~window:p.window ~lambda:p.lambda p.mode;
          win = Mqdp.Window_index.create (Mqdp.Coverage.Fixed p.lambda);
          last = None;
          pushed = 0;
        })
    sample;
  let rp =
    {
      trace = t;
      exec_s = Hashtbl.create 4096;
      answers = Hashtbl.create 4096;
      wall = 0.;
      posts = 0;
      deliveries = 0;
      emissions = 0;
      probe_pushes = 0;
      backlog_peak = 0;
      alloc = 0.;
      heap_ops = 0;
      rung_first = 0;
      rung_total = 0;
      live_posts = [];
      snapshot_load = 0.;
      last_checkpoint = None;
      query_exec = [];
      checkpoint_exec = [];
      recovery_replay = None;
    }
  in
  let heap () = counter "online.heap_pushes" + counter "online.heap_pops" in
  let step l parent =
    let req = l.l_idx in
    let words = tokens l.l_text in
    let verb = match words with _ :: v :: _ -> v | _ -> "" in
    let heap0 = heap () in
    let a0 = Gc.allocated_bytes () in
    let response =
      counted (fun () ->
          Trace.span t ~name:"serve.exec_on" ~req ~parent (fun _ ->
              Mqdp.Serve.exec_on engine sessions.(l.l_conn) l.l_text))
    in
    let exec_dur = Trace.dur_s (Trace.last t) in
    Hashtbl.replace rp.exec_s req exec_dur;
    Hashtbl.replace rp.answers req response;
    if verb = "FEED" || verb = "TICK" then rp.alloc <- rp.alloc +. (Gc.allocated_bytes () -. a0);
    rp.heap_ops <- rp.heap_ops + (heap () - heap0);
    let span name f = Trace.span t ~name ~req ~parent (fun _ -> f ()) in
    (match words with
    | _ :: "ADD" :: name :: _ -> (
      match Hashtbl.find_opt by_name name with
      | Some p ->
        let prof =
          Mqdp.Profile.create ~name ~subscription:(Mqdp.Label_set.of_list p.labels) (profile_config p)
        in
        Mqdp.Shard.add mirror.(Mqdp.Serve.shard_of_name ~shards name) prof;
        Hashtbl.replace mirror_profiles name (p, prof)
      | None -> ())
    | [ _; "FEED"; id; value; labels ] ->
      let post = parse_post id value labels in
      rp.posts <- rp.posts + 1;
      rp.backlog_peak <- max rp.backlog_peak (Mqdp.Serve.backlog engine);
      (* Match and project outside the span: only the offers are timed. *)
      let targets =
        List.concat_map (fun l -> Option.value ~default:[] (Hashtbl.find_opt by_label l)) post.Work.labels
        |> List.sort_uniq (fun (a : Work.profile) b -> compare a.name b.name)
        |> List.filter_map (fun (p : Work.profile) ->
               match (Work.project p post, Hashtbl.find_opt mirror_profiles p.name) with
               | Some q, Some (_, prof) -> Some (mirror.(Mqdp.Serve.shard_of_name ~shards p.name), prof, q)
               | _ -> None)
      in
      span "shard.offer" (fun () ->
          List.iter
            (fun (sh, prof, q) -> if Mqdp.Shard.offer sh prof q then rp.deliveries <- rp.deliveries + 1)
            targets);
      Hashtbl.iter
        (fun _ pb ->
          match Work.project pb.pr post with
          | None -> ()
          | Some q ->
            let out = span "feed.push" (fun () -> Mqdp.Feed.push pb.feed q) in
            rp.emissions <- rp.emissions + List.length out.Mqdp.Feed.emissions;
            rp.probe_pushes <- rp.probe_pushes + 1;
            pb.pushed <- pb.pushed + 1;
            Option.iter
              (fun prev ->
                span "window_index.expire" (fun () ->
                    Mqdp.Window_index.expire_before pb.win
                      ~time:(prev -. tau_of pb.pr.mode -. pb.pr.lambda)))
              pb.last;
            pb.last <- Some q.Mqdp.Post.value;
            span "window_index.push" (fun () -> Mqdp.Window_index.push pb.win q);
            if pb.pushed mod Mqdp.Serve.default_config.Mqdp.Serve.checkpoint_every = 0 then
              ignore (span "profile.checkpoint" (fun () -> Mqdp.Feed.checkpoint pb.feed)))
        probes
    | [ _; "TICK" ] ->
      Array.iter (fun sh -> ignore (span "shard.tick" (fun () -> Mqdp.Shard.tick sh))) mirror
    | [ _; ("REPORT" | "QUERY"); name ] -> (
      (match Hashtbl.find_opt mirror_profiles name with
      | Some (_, prof) when verb = "REPORT" ->
        ignore (span "profile.take_report" (fun () -> Mqdp.Profile.take_report prof))
      | Some (p, prof) -> (
        rp.query_exec <- exec_dur :: rp.query_exec;
        match Mqdp.Profile.window prof with
        | Some w ->
          let inst = span "query.to_instance" (fun () -> Mqdp.Window_index.to_instance w) in
          let report =
            span "solver.supervisor" (fun () ->
                Mqdp.Supervisor.solve ~breaker:(Mqdp.Profile.breaker prof)
                  ~ladder:(Mqdp.Supervisor.ladder_from Mqdp.Solver.Greedy_sc)
                  inst (Mqdp.Coverage.Fixed p.lambda))
          in
          rp.rung_total <- rp.rung_total + 1;
          if report.Mqdp.Supervisor.answered_by = Mqdp.Solver.algorithm_name Mqdp.Solver.Greedy_sc
          then rp.rung_first <- rp.rung_first + 1
        | None -> ())
      | None -> ());
      (* The solver layer, on a sampled profile's window probe. *)
      match Hashtbl.find_opt probes name with
      | Some pb when Mqdp.Window_index.size pb.win > 0 ->
        let inst = span "window_index.to_instance" (fun () -> Mqdp.Window_index.to_instance pb.win) in
        solver_probe t ~req ~parent inst pb.pr.lambda
      | _ -> ())
    | [ _; "CHECKPOINT" ] ->
      rp.checkpoint_exec <- exec_dur :: rp.checkpoint_exec;
      (* What the daemon makes durable at this point: every shard's
         snapshot and the journal gsn they cover. *)
      if durable then
        rp.last_checkpoint <-
          Some
            ( span "serve.shard_snapshot" (fun () -> List.init shards (Mqdp.Serve.shard_snapshot engine)),
              Mqdp.Serve.journal_gsn engine )
    | _ -> ())
  in
  let t_start = Util.Timer.now () in
  List.iter (fun l -> Trace.span t ~name:"request" ~req:l.l_idx (step l)) lines;
  rp.wall <- Util.Timer.now () -. t_start;
  Hashtbl.iter (fun _ pb -> rp.live_posts <- Mqdp.Window_index.size pb.win :: rp.live_posts) probes;
  (* End of script: recover the engine's state as a reboot would, on
     every workload. A durable engine recovers from what a kill -9 here
     would leave: the last CHECKPOINT's snapshots plus the journal since;
     the others from snapshots taken now. *)
  let fresh = Mqdp.Serve.create { Mqdp.Serve.default_config with jobs = 1 } in
  let timed f =
    let t0 = Util.Timer.now () in
    f ();
    Util.Timer.now () -. t0
  in
  let load snaps = rp.snapshot_load <- timed (fun () -> List.iteri (Mqdp.Serve.load_shard fresh) snaps) in
  if durable then begin
    Mqdp.Serve.detach_journal engine;
    let snaps, covered = Option.value ~default:([], 0) rp.last_checkpoint in
    load snaps;
    rp.recovery_replay <-
      Some (timed (fun () -> Mqdp.Serve.attach_journal ~fsync:false fresh ~dir:state ~covered));
    Mqdp.Serve.detach_journal fresh
  end
  else load (List.init shards (Mqdp.Serve.shard_snapshot engine));
  Mqdp.Serve.shutdown fresh;
  Mqdp.Serve.detach_journal engine;
  Mqdp.Serve.shutdown engine;
  rp

let sum_of rp name = List.fold_left ( +. ) 0. (Trace.durations rp.trace name)

(* Per-verb engine exec times out of the replay. *)
let exec_by_verb rp (lines : line list) verb =
  List.filter_map
    (fun l ->
      match tokens l.l_text with
      | _ :: v :: _ when v = verb -> Hashtbl.find_opt rp.exec_s l.l_idx
      | _ -> None)
    lines

(* The journal's own cost per FEED: the journaled replay's exec_on time
   minus the plain replay's for the same line. *)
let append_costs ~plain ~journaled (lines : line list) =
  List.filter_map
    (fun l ->
      match tokens l.l_text with
      | _ :: "FEED" :: _ -> (
        match (Hashtbl.find_opt journaled.per_line l.l_idx, Hashtbl.find_opt plain.per_line l.l_idx) with
        | Some j, Some p -> Some (j -. p)
        | _ -> None)
      | _ -> None)
    lines

(* Layer metrics out of a finished replay. [baseline] is the untraced
   replay configured like the traced one; [persist] the CHECKPOINT round
   trips of the --state-dir daemon. *)
let layer_metrics ~baseline ~plain ~journaled ~persist rp (lines : line list) =
  let pm name span p scale =
    let a = Stats.sorted (Trace.durations rp.trace span) in
    m ~samples:(Array.length a) name (if scale = 1e6 then "us" else "ms") (Stats.pct a p *. scale)
  in
  let sum = sum_of rp in
  let dist name verb p scale =
    let xs = exec_by_verb rp lines verb in
    m ~samples:(List.length xs) name (if scale = 1e6 then "us" else "ms")
      (Stats.pct (Stats.sorted xs) p *. scale)
  in
  let fanout =
    List.filter_map
      (fun s ->
        if s.Trace.name = "shard.offer" then
          Option.map (fun e -> e -. Trace.dur_s s) (Hashtbl.find_opt rp.exec_s s.Trace.req)
        else None)
      rp.trace.Trace.spans
  in
  let ratio = Stats.ratio in
  let marks = counter "greedy.marks" and picks = counter "greedy.picks" in
  let hits = counter "scan.cache_hits" and misses = counter "scan.cache_misses" in
  let accounted =
    List.fold_left (fun a (n, s) -> if n = "request" then a else a +. s) 0. (Trace.self_times rp.trace)
  in
  let append = Stats.sorted (append_costs ~plain ~journaled lines) in
  [ dist "serve.exec_feed_p50_us" "FEED" 50. 1e6;
    dist "serve.exec_feed_p99_us" "FEED" 99. 1e6;
    dist "serve.exec_tick_p50_ms" "TICK" 50. 1e3;
    dist "serve.exec_tick_p99_ms" "TICK" 99. 1e3;
    dist "serve.exec_report_p50_us" "REPORT" 50. 1e6;
    m ~samples:(List.length fanout) "serve.fanout_p50_us" "us" (Stats.median fanout *. 1e6);
    m ~samples:rp.posts "serve.deliveries_per_post" "count" (ratio rp.deliveries rp.posts);
    m ~samples:rp.posts "serve.alloc_bytes_per_post" "B" (rp.alloc /. float_of_int (max 1 rp.posts));
    m ~samples:rp.deliveries "shard.offer_us" "us"
      (sum "shard.offer" /. float_of_int (max 1 rp.deliveries) *. 1e6);
    pm "shard.tick_p50_ms" "shard.tick" 50. 1e3;
    m "shard.backlog_peak" "count" (float_of_int rp.backlog_peak);
    m ~samples:rp.deliveries "profile.process_us_per_post" "us"
      (sum "shard.tick" /. float_of_int (max 1 rp.deliveries) *. 1e6);
    pm "profile.checkpoint_p50_us" "profile.checkpoint" 50. 1e6;
    pm "profile.take_report_p50_us" "profile.take_report" 50. 1e6;
    pm "feed.push_p50_us" "feed.push" 50. 1e6;
    m ~samples:rp.probe_pushes "online.emissions_per_post" "count" (ratio rp.emissions rp.probe_pushes);
    m ~samples:rp.deliveries "online.heap_ops_per_post" "count" (ratio rp.heap_ops rp.deliveries);
    pm "window_index.push_p50_us" "window_index.push" 50. 1e6;
    pm "window_index.expire_p50_us" "window_index.expire" 50. 1e6;
    m ~samples:(List.length rp.live_posts) "window_index.live_posts" "count"
      (Stats.mean (List.map float_of_int rp.live_posts));
    (let a = Stats.sorted (Trace.durations rp.trace "window_index.to_instance" @ Trace.durations rp.trace "query.to_instance") in
     m ~samples:(Array.length a) "window_index.to_instance_p50_ms" "ms" (Stats.pct a 50. *. 1e3));
    pm "solver.compile_p50_ms" "solver.compile" 50. 1e3;
    pm "solver.solve_greedy_p50_ms" "solver.solve_greedy" 50. 1e3;
    pm "solver.solve_scanplus_p50_ms" "solver.solve_scanplus" 50. 1e3;
    m ~samples:picks "greedy_sc.marks_per_pick" "count" (ratio marks picks);
    m ~samples:(hits + misses) "scan.cache_hit_ratio" "1" (ratio hits (hits + misses));
    m ~samples:rp.rung_total "supervisor.first_rung_share" "1"
      (if rp.rung_total = 0 then 1. else ratio rp.rung_first rp.rung_total);
    m ~samples:(Array.length append) "journal.append_p50_us" "us" (Stats.pct append 50. *. 1e6);
    m ~samples:(Array.length append) "journal.append_p99_us" "us" (Stats.pct append 99. *. 1e6);
    m ~samples:journaled.commands "journal.bytes_per_cmd" "B"
      (ratio journaled.journal_bytes journaled.commands);
    m ~samples:(List.length persist) "journal.persist_ms" "ms" (Stats.median persist *. 1e3);
    m "recovery.snapshot_load_ms" "ms" (rp.snapshot_load *. 1e3);
    m "trace.overhead_share" "1" ((sum "serve.exec_on" /. baseline) -. 1.);
    m "trace.unaccounted_share" "1" (Float.max 0. ((rp.wall -. accounted) /. rp.wall)) ]
  @ (if rp.query_exec = [] then []
     else [ m ~samples:(List.length rp.query_exec) "serve.exec_query_p50_ms" "ms" (Stats.median rp.query_exec *. 1e3) ])
  @ (if rp.checkpoint_exec = [] then []
     else
       [ m ~samples:(List.length rp.checkpoint_exec) "serve.exec_checkpoint_p50_ms" "ms"
           (Stats.median rp.checkpoint_exec *. 1e3) ])
  @ match rp.recovery_replay with Some s -> [ m "recovery.replay_ms" "ms" (s *. 1e3) ] | None -> []

(* The engine's time split by layer: mirror time measured on the same
   inputs is subtracted from the engine's exec time, and what is left is
   the serve layer's own parsing, dispatch and fan-out. Inside the tick,
   the sampled Feed probes (push, and the checkpoint a profile takes
   every 64 posts), scaled up by deliveries, apportion the mirror's tick
   time; whatever they do not cover is shard and profile bookkeeping.
   [journal] is the engine time the session journal adds (durable only). *)
let waterfall ~journal rp =
  let sum = sum_of rp in
  let exec_total = sum "serve.exec_on" in
  let tick = sum "shard.tick" in
  let scale =
    if rp.probe_pushes = 0 then 0. else float_of_int rp.deliveries /. float_of_int rp.probe_pushes
  in
  let feed_raw = sum "feed.push" *. scale and ckpt_raw = sum "profile.checkpoint" *. scale in
  (* Sampled profiles are not the fleet: never let the estimates exceed
     the tick they sit in. *)
  let shrink = Float.min 1. (tick /. Float.max 1e-12 (feed_raw +. ckpt_raw)) in
  let feed_est = feed_raw *. shrink and ckpt_est = ckpt_raw *. shrink in
  let parts =
    [ ("shard.offer", sum "shard.offer");
      ("tick: feed+online+window_index (probe share)", feed_est);
      ("tick: profile.checkpoint (probe share)", ckpt_est);
      ("tick: shard+profile bookkeeping (rest)", Float.max 0. (tick -. feed_est -. ckpt_est));
      ("profile.take_report", sum "profile.take_report");
      ("window_index.to_instance + Supervisor (QUERY)", sum "query.to_instance" +. sum "solver.supervisor");
      ("journal.append (journaled minus plain replay)", journal) ]
  in
  let below = List.fold_left (fun a (_, v) -> a +. v) 0. parts in
  let parts = ("serve (parse, dispatch, fan-out: the remainder)", Float.max 0. (exec_total -. below)) :: parts in
  (exec_total, List.sort (fun (_, a) (_, b) -> compare b a) parts)

(* A number or a histogram field out of the STATS JSON line: the value
   after ["key":] (or after ["key":{...,"field":]). *)
let json_num json ?field key =
  let find_from i pat =
    let n = String.length pat and len = String.length json in
    let rec go i = if i + n > len then None else if String.sub json i n = pat then Some (i + n) else go (i + 1) in
    go i
  in
  let num_at i =
    let j = ref i in
    while !j < String.length json && String.contains "0123456789.eE+-" json.[!j] do incr j done;
    float_of_string_opt (String.sub json i (!j - i))
  in
  match find_from 0 (Printf.sprintf "\"%s\":" key) with
  | None -> None
  | Some i -> (
    match field with
    | None -> num_at i
    | Some f -> Option.bind (find_from i (Printf.sprintf "\"%s\":" f)) num_at)

let pad s n = if String.length s >= n then s else s ^ String.make (n - String.length s) ' '

let report_text ~workload ~rp ~journal ~extra =
  let b = Buffer.create 2048 in
  let pr fmt = Printf.bprintf b fmt in
  pr "traced run (%s): in-process replay of %d requests, wall %.3f s\n" workload
    (Hashtbl.length rp.exec_s) rp.wall;
  pr "  span self time by layer call:\n";
  let self = Trace.self_times rp.trace in
  List.iter
    (fun (n, s) ->
      pr "    %s %10.3f ms  %5.1f%%%s\n" (pad n 28) (s *. 1e3) (100. *. s /. rp.wall)
        (if n = "request" then "  (the replay loop itself)" else ""))
    self;
  let accounted = List.fold_left (fun a (n, s) -> if n = "request" then a else a +. s) 0. self in
  pr "  share of replay wall time no layer accounts for: %.1f%%\n"
    (100. *. Float.max 0. ((rp.wall -. accounted) /. rp.wall));
  let exec_total, parts = waterfall ~journal rp in
  pr "  engine time (Serve.exec_on, %.3f s) split by layer:\n" exec_total;
  List.iter
    (fun (n, v) -> pr "    %s %10.3f ms  %5.1f%%\n" (pad n 52) (v *. 1e3) (100. *. v /. Float.max 1e-12 exec_total))
    parts;
  (match parts with
  | (top, v) :: _ -> pr "  largest engine layer: %s (%.1f%% of engine time)\n" top (100. *. v /. Float.max 1e-12 exec_total)
  | [] -> ());
  Buffer.add_string b extra;
  Buffer.contents b

(* journal.persist_ms: CHECKPOINT round trips against a --state-dir
   daemon (fsync on) fed the same lines, pipelined, on two named
   sessions. At [persist_points] even steps through the lines the
   publisher waits until nothing is in flight and times one CHECKPOINT:
   the daemon writes a snapshot epoch and the manifest and compacts its
   journal before the answer leaves. Returns seconds per round trip. *)
let persist_points = 5

let persist_probe ~exe ~out ~jobs (lines : line list) =
  let dir = Filename.concat out "persist.state" in
  Util.Fs.remove_tree dir;
  Unix.mkdir dir 0o755;
  let d =
    Daemon.spawn ~exe ~log:(Filename.concat out "persist.daemon.log")
      [ "--jobs"; string_of_int jobs; "--idle-timeout"; "0"; "--state-dir"; dir ]
  in
  Fun.protect ~finally:(fun () -> Daemon.kill d) (fun () ->
      let g = Loadgen.create [| Daemon.connect d; Daemon.connect d |] in
      Serve_run.hello g 0 "pub";
      Serve_run.hello g 1 "sub";
      let quiet () =
        if not (Loadgen.wait_until g ~limit:(Util.Timer.now () +. 60.) (fun () -> Loadgen.inflight g = 0))
        then failwith "the --state-dir daemon stopped answering"
      in
      let every = max 1 (List.length lines / persist_points) in
      let times = ref [] in
      List.iteri
        (fun i l ->
          (match tokens l.l_text with
          | _ :: "CHECKPOINT" :: _ | [] | [ _ ] -> ()
          | _ :: cmd ->
            ignore
              (Loadgen.wait_until g ~limit:(Util.Timer.now () +. 60.) (fun () ->
                   Loadgen.conn_inflight g l.l_conn < 64));
            ignore (Loadgen.send g l.l_conn (String.concat " " cmd)));
          if (i + 1) mod every = 0 then begin
            quiet ();
            let r = Loadgen.call g 0 "CHECKPOINT" in
            if Loadgen.answered_ok r then times := (r.Loadgen.recv -. r.Loadgen.sent) :: !times
          end)
        lines;
      quiet ();
      Loadgen.close g;
      !times)

(* The untraced replays and the daemon probe behind the journal layer,
   and the replay configured like the traced one (the tracing baseline). *)
let journal_parts ~exe ~out ~jobs ~durable lines =
  let plain = plain_replay ~work:out ~journal:false lines in
  let journaled = plain_replay ~work:out ~journal:true lines in
  let persist = persist_probe ~exe ~out ~jobs lines in
  (plain, journaled, persist, (if durable then journaled else plain).total)

let tracing_line rp baseline =
  Printf.sprintf "  tracing overhead: traced engine time %.3f s vs untraced replay %.3f s (%+.1f%%)\n"
    (sum_of rp "serve.exec_on") baseline (100. *. ((sum_of rp "serve.exec_on" /. baseline) -. 1.))

let journal_line ~journaled ~persist =
  Printf.sprintf
    "  journal (Serve's session journal, fsync on): %d commands, %.1f B each; \
     CHECKPOINT round trip on a --state-dir daemon, median of %d: %.2f ms\n"
    journaled.commands (Stats.ratio journaled.journal_bytes journaled.commands) (List.length persist)
    (Stats.median persist *. 1e3)

let post_io_load_ms tsv =
  let once () =
    let t0 = Util.Timer.now () in
    ignore (Workload.Post_io.load tsv);
    Util.Timer.now () -. t0
  in
  Stats.median (List.init 3 (fun _ -> once ())) *. 1e3

(* The capacity-phase posts the traced replay keeps; the rest of that
   phase is skipped (it ends at a TICK, so the engine state the open loop
   meets differs only in history) to bound the traced run's length. *)
let replay_capacity_posts = 1024

let lines_of_requests reqs =
  List.filter_map
    (fun (r : Loadgen.req) ->
      match tokens r.Loadgen.line with
      | seq :: verb :: _ when int_of_string_opt seq <> None && verb <> "STATS" ->
        Some { l_idx = r.Loadgen.idx; l_conn = r.Loadgen.conn; l_text = r.Loadgen.line }
      | _ -> None)
    reqs

(* Set-up, the first [replay_capacity_posts] capacity posts up to the
   TICK after them, and the whole open loop. *)
let replayed_lines (r : Serve_run.result) =
  let feeds = ref 0 and cut = ref false in
  lines_of_requests (Loadgen.requests r.Serve_run.gen)
  |> List.filter (fun l ->
         if l.l_idx < r.Serve_run.capacity_from || l.l_idx >= r.Serve_run.open_loop_from then true
         else if !cut then false
         else begin
           (match tokens l.l_text with
           | _ :: "FEED" :: _ -> incr feeds
           | _ :: "TICK" :: _ when !feeds >= replay_capacity_posts -> cut := true
           | _ -> ());
           true
         end)

let serving ~exe ~out ~jobs (spec : Work.spec) (r : Serve_run.result) =
  let reqs = Loadgen.requests r.Serve_run.gen in
  let lines = replayed_lines r in
  let sample = Array.to_list (Array.sub r.Serve_run.fleet 0 (min spec.sample (Array.length r.Serve_run.fleet))) in
  Util.Telemetry.reset ();
  let plain, journaled, persist, baseline = journal_parts ~exe ~out ~jobs ~durable:spec.durable lines in
  let rp = traced_replay ~work:out ~durable:spec.durable r.Serve_run.fleet ~sample lines in
  Trace.write_jsonl rp.trace (Filename.concat out (spec.name ^ ".trace.jsonl"));
  let tsv = Filename.concat out (spec.name ^ ".posts.tsv") in
  Workload.Post_io.save tsv (List.map Work.to_post r.Serve_run.fed);
  (* Part 1: the telemetry daemon, seen from the generator. A request
     sent with nothing else in flight is answered in transport time plus
     the engine's exec time, which the replay measured on the same line. *)
  let idle = Hashtbl.create 1024 in
  List.iter (fun i -> Hashtbl.replace idle i ()) r.Serve_run.gen.Loadgen.idle_sends;
  let overhead =
    List.filter_map
      (fun (q : Loadgen.req) ->
        if Hashtbl.mem idle q.Loadgen.idx && (q.Loadgen.verb = "FEED" || q.Loadgen.verb = "REPORT")
           && not (Float.is_nan q.Loadgen.recv)
        then
          Option.map (fun e -> q.Loadgen.recv -. q.Loadgen.sent -. e) (Hashtbl.find_opt rp.exec_s q.Loadgen.idx)
        else None)
      reqs
  in
  let ov = Stats.sorted overhead in
  let stats = Option.value ~default:"{}" r.Serve_run.stats_json in
  let num ?field k = Option.value ~default:nan (json_num stats ?field k) in
  let per_read = Stats.ratio (Loadgen.finals r.Serve_run.gen) (Loadgen.reads r.Serve_run.gen) in
  let ov50 = Stats.pct ov 50. *. 1e6 and ov99 = Stats.pct ov 99. *. 1e6 in
  let daemon_metrics =
    [ m ~samples:(Array.length ov) "transport.overhead_p50_us" "us" ov50;
      m ~samples:(Array.length ov) "transport.overhead_p99_us" "us" ov99;
      m ~samples:(Loadgen.reads r.Serve_run.gen) "transport.responses_per_read" "count" per_read;
      m "daemon.serve.request_p50_us" "us" (num ~field:"p50" "serve.request" *. 1e6);
      m "daemon.serve.request_p99_us" "us" (num ~field:"p99" "serve.request" *. 1e6);
      m "daemon.serve.report_p50_us" "us" (num ~field:"p50" "serve.report" *. 1e6);
      m "daemon.window.pushes" "count" (num "window.pushes");
      m "daemon.window.expirations" "count" (num "window.expirations");
      m "daemon.online.heap_ops" "count" (num "online.heap_pushes" +. num "online.heap_pops");
      m "daemon.greedy.marks" "count" (num "greedy.marks");
      m "daemon.supervisor.answered" "count" (num "supervisor.answered");
      m "daemon.serve.applied" "count" (num "serve.applied") ]
    @ match r.Serve_run.redone with
      | Some n -> [ m "recovery.commands_redone" "count" (float_of_int n) ]
      | None -> []
  in
  let metrics =
    layer_metrics ~baseline ~plain ~journaled ~persist rp lines
    @ [ m ~samples:3 "post_io.load_ms" "ms" (post_io_load_ms tsv) ]
    @ daemon_metrics
  in
  (* The replay executed the daemon's own lines: FEED and TICK answers
     (publisher-ordered, so deterministic) must be the daemon's. *)
  let mismatches =
    List.length
      (List.filter
         (fun (q : Loadgen.req) ->
           (q.Loadgen.verb = "FEED" || q.Loadgen.verb = "TICK")
           && (match Hashtbl.find_opt rp.answers q.Loadgen.idx with
              | Some a -> a <> [ q.Loadgen.final ]
              | None -> false))
         reqs)
  in
  let extra =
    Printf.sprintf
      "  daemon (--telemetry) part: transport overhead p50 %.1f us p99 %.1f us over %d idle \
       requests; %.2f responses per read\n"
      ov50 ov99 (Array.length ov) per_read
    ^ journal_line ~journaled ~persist
  in
  let tracing = tracing_line rp baseline in
  {
    metrics;
    checks = [ (Printf.sprintf "in-process FEED/TICK answers equal the daemon's (%d differ)" mismatches, mismatches = 0) ];
    report =
      report_text ~workload:spec.name ~rp
        ~journal:(if spec.durable then Float.max 0. (journaled.total -. plain.total) else 0.)
        ~extra:(extra ^ tracing);
  }

(* offline_solve has no serving script, so its traced run replays the
   first posts of its day through a probe fleet of twenty profiles (half
   windowed) to give every layer its figures on these inputs, and takes
   the solver figures from compile + solve on the full instance. *)
let probe_posts = 4096

let offline ~exe ~out ~jobs (r : Offline.result) =
  let inst = r.Offline.instance in
  let n = min probe_posts (Mqdp.Instance.size inst) in
  let posts =
    List.init n (fun i ->
        let p = Mqdp.Instance.post inst i in
        { Work.id = p.Mqdp.Post.id; value = p.Mqdp.Post.value; labels = Mqdp.Label_set.to_list p.Mqdp.Post.labels })
  in
  let fleet =
    Array.init 20 (fun j ->
        {
          Work.name = Printf.sprintf "o%02d" j;
          lambda = Offline.lambda_value;
          mode = (if j mod 2 = 0 then Work.delayed 600. else Mqdp.Online.Instant);
          window = j mod 2 = 0;
          labels = List.sort_uniq compare [ j; (j + 1) mod 20; (j + 7) mod 20 ];
        })
  in
  let seq = ref 0 in
  let lines = ref [] in
  let add text =
    incr seq;
    lines := { l_idx = !seq; l_conn = 0; l_text = Printf.sprintf "%d %s" !seq text } :: !lines
  in
  Array.iter (fun p -> add (Work.add_line p)) fleet;
  List.iteri
    (fun i p ->
      add (Work.feed_line p);
      if (i + 1) mod 16 = 0 then add "TICK";
      if (i + 1) mod 8 = 0 then add ("REPORT " ^ fleet.((i / 8) mod 20).Work.name);
      if (i + 1) mod 64 = 0 then add ("QUERY " ^ fleet.(2 * ((i / 64) mod 10)).Work.name))
    posts;
  add "TICK";
  let lines = List.rev !lines in
  let sample = Array.to_list (Array.sub fleet 0 8) in
  Util.Telemetry.reset ();
  let plain, journaled, persist, baseline = journal_parts ~exe ~out ~jobs ~durable:false lines in
  let rp = traced_replay ~work:out ~durable:false fleet ~sample lines in
  (* The solver layer on the full day, as the untraced run solves it. *)
  Util.Telemetry.reset ();
  let t = rp.trace in
  for _ = 1 to 3 do
    Trace.span t ~name:"request" ~req:(-1) (fun parent ->
        let idx =
          Trace.span t ~name:"day.compile" ~req:(-1) ~parent (fun _ -> Mqdp.Solver.compile inst Offline.lambda)
        in
        counted (fun () ->
            ignore
              (Trace.span t ~name:"day.solve_greedy" ~req:(-1) ~parent (fun _ ->
                   Mqdp.Solver.solve_compiled Mqdp.Solver.Greedy_sc idx));
            ignore
              (Trace.span t ~name:"day.solve_scanplus" ~req:(-1) ~parent (fun _ ->
                   Mqdp.Solver.solve_compiled Mqdp.Solver.Scan_plus idx))))
  done;
  Trace.write_jsonl t (Filename.concat out "offline_solve.trace.jsonl");
  let med name = Stats.median (Trace.durations t name) *. 1e3 in
  let day =
    [ m ~samples:3 "solver.compile_p50_ms" "ms" (med "day.compile");
      m ~samples:3 "solver.solve_greedy_p50_ms" "ms" (med "day.solve_greedy");
      m ~samples:3 "solver.solve_scanplus_p50_ms" "ms" (med "day.solve_scanplus");
      m "greedy_sc.marks_per_pick" "count" (Stats.ratio (counter "greedy.marks") (counter "greedy.picks"));
      m "scan.cache_hit_ratio" "1"
        (Stats.ratio (counter "scan.cache_hits") (counter "scan.cache_hits" + counter "scan.cache_misses"));
      m ~samples:3 "post_io.load_ms" "ms" (post_io_load_ms r.Offline.tsv) ]
  in
  let replaced = List.map (fun (x : Stats.metric) -> x.name) day in
  let metrics =
    List.filter
      (fun (x : Stats.metric) -> not (List.mem x.name replaced))
      (layer_metrics ~baseline ~plain ~journaled ~persist rp lines)
    @ day
  in
  let tracing =
    Printf.sprintf
      "  solver on the full day (%d posts): compile %.2f ms, GreedySC %.2f ms, Scan+ %.2f ms\n"
      (Mqdp.Instance.size inst) (med "day.compile") (med "day.solve_greedy") (med "day.solve_scanplus")
    ^ journal_line ~journaled ~persist ^ tracing_line rp baseline
  in
  { metrics; checks = []; report = report_text ~workload:"offline_solve" ~rp ~journal:0. ~extra:tracing }
