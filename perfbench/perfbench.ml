(* perfbench — the end-to-end benchmark for mqdp_serve and the solvers.

     perfbench --serve EXE --out DIR --workload NAME --seed N --seconds S --trace 0|1

   Workloads: fanout, window_query, durable (a real mqdp_serve child
   driven over loopback by one single-threaded generator with two
   connections) and offline_solve (Post_io + Solver.solve in-process).
   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 the workload runs against a --telemetry daemon and is
   then replayed in-process with spans around each layer's calls, and the
   last line carries the per-layer metrics. Every run writes a record
   under DIR/runs. See perfbench/README.md. *)

let workloads = [ "fanout"; "window_query"; "durable"; "offline_solve" ]

let nproc () =
  match Unix.open_process_in "nproc" with
  | ic ->
    let n = try int_of_string (String.trim (input_line ic)) with _ -> 1 in
    ignore (Unix.close_process_in ic);
    n
  | exception _ -> 1

(* The commit the checkout was taken from, when it is a git work tree. *)
let git_rev () =
  let read f = try Some (String.trim (Util.Fs.read f)) with _ -> None in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    Option.value ~default:"unknown"
      (read (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
  | Some rev -> rev
  | None -> "unknown"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fixed CPU loop, timed five times: how fast the host ran this
   process. Taken before and after the workload and recorded, so that a
   slow run can be told from a slow program. *)
let calib_samples () =
  List.init 5 (fun _ ->
      let t0 = Util.Timer.now () in
      let x = ref 0 in
      for i = 1 to 5_000_000 do
        x := !x + (i land 7)
      done;
      ignore (Sys.opaque_identity !x);
      (Util.Timer.now () -. t0) *. 1e3)

let print_metric (m : Stats.metric) =
  Printf.printf "  %-34s %14.6g %-8s (%d sample%s)\n" m.name m.value m.unit_ m.samples
    (if m.samples = 1 then "" else "s")

let metrics_json ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun (m : Stats.metric) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Stats.json_string m.name)
             (Stats.json_float m.value) (Stats.json_string m.unit_))
         ms)
  ^ "}"

let write_record ~out ~workload ~seed ~seconds ~trace ~jobs ~all ~checks ~valid ~attempted ~failed =
  let dir = Filename.concat out "runs" in
  mkdir_p dir;
  let stamp = Unix.gettimeofday () in
  let path =
    Filename.concat dir
      (Printf.sprintf "BENCH_%s_seed%d_trace%d_%.0f.json" workload seed (if trace then 1 else 0)
         (stamp *. 1e3))
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%b,\"git_rev\":%s,\"nproc\":%d,\
     \"jobs\":%d,\"build_profile\":\"release\",\"ocaml_version\":%s,\"unix_time\":%.3f,\
     \"valid\":%b,\"attempted\":%d,\"failed\":%d,\"checks\":{%s},\"metrics\":[%s]}\n"
    (Stats.json_string workload) seed (Stats.json_float seconds) trace
    (Stats.json_string (git_rev ())) (nproc ()) jobs (Stats.json_string Sys.ocaml_version) stamp
    valid attempted failed
    (String.concat "," (List.map (fun (n, ok) -> Printf.sprintf "%s:%b" (Stats.json_string n) ok) checks))
    (String.concat ","
       (List.map
          (fun (m : Stats.metric) ->
            Printf.sprintf "{\"name\":%s,\"unit\":%s,\"value\":%s,\"samples\":%d}"
              (Stats.json_string m.name) (Stats.json_string m.unit_) (Stats.json_float m.value)
              m.samples)
          all));
  close_out oc;
  path

let main () =
  let serve = ref "" and out = ref "perfbench/out" and workload = ref "" in
  let seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--serve", Arg.Set_string serve, "EXE  the mqdp_serve binary");
      ("--out", Arg.Set_string out, "DIR  run records and working state");
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  let work = Filename.concat !out "work" in
  mkdir_p work;
  (* The generator keeps one core to itself, so the open loop stays on
     schedule; the daemon's tick pool gets the rest. *)
  let jobs = max 1 (nproc () - 1) in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b jobs=%d\n%!" !workload !seed !seconds trace jobs;
  let calib_before = calib_samples () in
  let headline, all, checks, valid, attempted, failed, layers =
    if not (Sys.file_exists !serve) then begin
      prerr_endline "perfbench: --serve must name the mqdp_serve binary";
      exit 2
    end;
    if !workload = "offline_solve" then begin
      let r = Offline.run ~out:work ~seed:!seed ~seconds:!seconds in
      let layers = if trace then Some (Layers.offline ~exe:!serve ~out:work ~jobs r) else None in
      (r.Offline.headline, r.Offline.metrics, r.Offline.checks, true, r.Offline.attempted, 0, layers)
    end
    else begin
      let spec = List.find (fun (s : Work.spec) -> s.name = !workload) Work.serving in
      let env = { Serve_run.exe = !serve; out = work; jobs; trace } in
      let r = Serve_run.run env spec ~seed:!seed ~seconds:!seconds in
      let layers = if trace then Some (Layers.serving ~exe:!serve ~out:work ~jobs spec r) else None in
      (r.Serve_run.headline, r.Serve_run.metrics, r.Serve_run.checks, r.Serve_run.valid,
       r.Serve_run.attempted, r.Serve_run.failed, layers)
    end
  in
  let calib = calib_before @ calib_samples () in
  let all = all @ [ Stats.metric ~samples:(List.length calib) "host.calib_ms" "ms" (Stats.median calib) ] in
  print_endline "end-to-end metrics:";
  List.iter print_metric headline;
  print_endline "workload metrics:";
  List.iter print_metric all;
  let layer_metrics, layer_checks =
    match layers with
    | None -> ([], [])
    | Some (l : Layers.result) ->
      print_string l.Layers.report;
      (l.Layers.metrics, l.Layers.checks)
  in
  let checks = checks @ layer_checks in
  List.iter (fun (n, ok) -> Printf.printf "check %-56s %s\n" n (if ok then "ok" else "FAIL")) checks;
  let correct = List.for_all snd checks in
  Printf.printf "run valid (generator lag p99 <= %.0f ms): %b\n" Serve_run.lag_bound_ms valid;
  let record =
    write_record ~out:!out ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ~jobs
      ~all:(headline @ all @ layer_metrics) ~checks ~valid ~attempted ~failed
  in
  Printf.printf "record: %s\n" record;
  let reported =
    if trace then
      List.map
        (fun name ->
          match List.find_opt (fun (x : Stats.metric) -> x.name = name) layer_metrics with
          | Some x -> x
          | None -> failwith ("per-layer metric missing: " ^ name))
        Layers.per_layer
    else headline
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!" correct
    (max 1 attempted) failed (metrics_json reported)

let () =
  (* Exit through at_exit, which reaps every daemon still running. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  match main () with
  | () -> exit 0
  | exception e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 1
