(* Measurement side of the benchmark (driven by run.py).

   harness inproc --workload batch-sat|signoff-certify ...
     closed loop on one domain over Eco.Engine.solve, the window computed
     through Eco.Window.compute and passed back with ?window;
   harness serve --workload serve-edit --eco-cli PATH ...
     spawns `eco_cli serve -j 1` per episode and drives it over the wire
     protocol from this process;
   harness screen --workload W
     solves every op of a roster three times and prints what the roster
     screen checks (status, verification, repeatable counters, time).

   The measuring subcommands write one JSON document of raw samples to
   --out; run.py turns the samples into metrics.  Every time in it is a
   wall time divided by the host's slowdown when it was taken (Calib).  Every op is checked
   against a reference outcome: its first solve in this process, which
   Eco.Verify.check_certified re-checks outside the timed loop. *)

module R = Server.Request
module J = Server.Jsonx

let now = Unix.gettimeofday

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* VmHWM of a process in MiB ("self" or a pid). *)
let vm_hwm_mb who =
  let ic = open_in (Printf.sprintf "/proc/%s/status" who) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* {2 Samples and checks} *)

type sample = {
  op : int;
  ms : float;
  ok : bool;
  traced : bool;
  cached : int;  (** 1 / 0 for served requests, -1 in-process *)
  cost : int;
  gates : int;
  depth : int;
}

let failures = ref []
let n_failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr n_failures;
      if !n_failures <= 20 then failures := msg :: !failures)
    fmt

(* Minimum samples per timing set: the tail rule needs ten beyond p90. *)
let min_samples = 100

(* Wall-clock cap on a measured phase whatever --seconds asks, so that a
   whole run (set-up, reference pass, measurement, checks) stays under
   three minutes. *)
let phase_cap = 100.

let samples_json samples =
  J.List
    (List.rev_map
       (fun s ->
         J.List
           [
             J.Int s.op;
             J.Float s.ms;
             J.Bool s.ok;
             J.Bool s.traced;
             J.Int s.cached;
             J.Int s.cost;
             J.Int s.gates;
             J.Int s.depth;
           ])
       samples)

let floats xs = J.List (List.map (fun x -> J.Float x) xs)

let write_result path fields =
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          (fields
          @ [
              ("failures", J.Int !n_failures);
              ("failure_msgs", J.List (List.rev_map (fun m -> J.Str m) !failures));
            ])));
  output_char oc '\n';
  close_out oc

(* The deterministic per-layer work counters, reported per pass: a
   roster's ops once each in-process, one episode's stream on serve-edit. *)
let count_names =
  [
    "sat.solves"; "sat.conflicts"; "sat.decisions"; "sat.propagations"; "session.vars_encoded";
    "session.clauses_encoded"; "support.sat_calls"; "min_assume.oracle_calls"; "patch_fun.cubes";
    "patch_fun.sat_calls"; "patch_fun.aborts"; "cec.checks"; "qbf.iterations"; "cert.checked";
    "cert.proof_steps"; "cert.rup_fallbacks"; "cert.failed"; "eco.sweep.runs";
    "eco.sweep.nodes_removed";
  ]

let get (d : Telemetry.snapshot) k = Option.value (List.assoc_opt k d) ~default:0

(* The counters above plus cec.decided_share, from [total name]. *)
let count_layers total =
  let checks = total "cec.checks" in
  List.map (fun k -> (k, total k)) count_names
  @ [ ("cec.decided_share", if checks > 0. then 1. -. (total "cec.undecided" /. checks) else 0.) ]

let certified_ok inst (o : Eco.Engine.outcome) ~budget =
  match Eco.Verify.check_certified ~budget inst o.Eco.Engine.patches with
  | Cec.Equivalent, Some Cec.Certified -> Ok ()
  | Cec.Equivalent, _ -> Error "equivalence not certified"
  | Cec.Counterexample _, _ -> Error "patched netlist differs from the specification"
  | Cec.Undecided, _ -> Error "certified check undecided"

let rendered inst o = J.to_string (R.render_outcome ~name:inst.Eco.Instance.name o)

(* {2 In-process workloads} *)

let source_key (op : Roster.op) = op.Roster.input.Roster.name ^ if op.Roster.weights_alt then "+w" else ""

let distinct_sources ops =
  Array.fold_left
    (fun acc op ->
      let k = source_key op in
      if List.mem_assoc k acc then acc else (k, Roster.source op) :: acc)
    [] ops
  |> List.rev

let resolve_exn key src =
  match R.resolve src with Ok i -> i | Error m -> failwith (key ^ ": " ^ m)

type run = {
  outcome : Eco.Engine.outcome;
  t0 : float;
  t1 : float;  (** window computed *)
  t2 : float;  (** solve returned *)
  delta : Telemetry.snapshot;
  phase_delta : (string * float) list;
  minor_words : float;
  major_collections : int;
  scale : float;  (** the host's slowdown when it ran (Calib) *)
}

let phase_delta before after =
  List.filter_map
    (fun (p : Telemetry.phase_stat) ->
      let s0 =
        match List.find_opt (fun (q : Telemetry.phase_stat) -> q.path = p.path) before with
        | Some q -> q.seconds
        | None -> 0.
      in
      let d = p.seconds -. s0 in
      if d > 0. then Some (p.path, d) else None)
    after

let exec ~traced insts (op : Roster.op) =
  let inst = Hashtbl.find insts (source_key op) in
  let config = R.config_of_options op.Roster.options in
  let scale = Calib.step () in
  let c0 = Telemetry.local_snapshot () in
  let ph0 = if traced then Telemetry.phases () else [] in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let window = Eco.Window.compute inst in
  let t1 = now () in
  let outcome = Eco.Engine.solve ~config ~window inst in
  let t2 = now () in
  let g1 = Gc.quick_stat () in
  let ph1 = if traced then Telemetry.phases () else [] in
  let c1 = Telemetry.local_snapshot () in
  {
    outcome;
    t0;
    t1;
    t2;
    delta = Telemetry.diff c0 c1;
    phase_delta = phase_delta ph0 ph1;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    scale;
  }

(* The engine's top-level phases under "eco"; anything else the eco
   phase covers is reported as eco.unattributed.s. *)
let eco_children = [ "miter"; "feasibility"; "support"; "patch_fun"; "structural"; "verify" ]

let trace_request ~workload ~repeat ~req (op : Roster.op) r =
  let m = R.method_name op.Roster.options.R.method_ in
  let root =
    Trace.add ~req "request" ~start:r.t0 ~dur:(r.t2 -. r.t0)
      ~attrs:
        [
          ("workload", J.Str workload);
          ("instance", J.Str (source_key op));
          ("method", J.Str m);
          ("repeat", J.Int repeat);
          ("host_slowdown", J.Float r.scale);
          ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) r.delta));
          ( "gc",
            J.Obj
              [
                ("minor_words", J.Float r.minor_words);
                ("major_collections", J.Int r.major_collections);
              ] );
        ]
  in
  ignore (Trace.add ~parent:root ~req "Window.compute" ~start:r.t0 ~dur:(r.t1 -. r.t0));
  let solve = Trace.add ~parent:root ~req "Engine.solve" ~start:r.t1 ~dur:(r.t2 -. r.t1) in
  (* Phase paths nest by '/': a phase's parent is its path prefix.  Self
     time is its duration minus its direct children's. *)
  let ids = Hashtbl.create 16 in
  List.iter
    (fun (path, d) ->
      let parent =
        match String.rindex_opt path '/' with
        | Some i -> Option.value (Hashtbl.find_opt ids (String.sub path 0 i)) ~default:solve
        | None -> solve
      in
      let direct_children =
        List.filter
          (fun (q, _) ->
            String.length q > String.length path + 1
            && String.sub q 0 (String.length path + 1) = path ^ "/"
            && not (String.contains_from q (String.length path + 1) '/'))
          r.phase_delta
      in
      let self = d -. sum (List.map snd direct_children) in
      Hashtbl.replace ids path
        (Trace.add ~parent ~req ("phase:" ^ path) ~start:r.t1 ~dur:d
           ~attrs:[ ("self_ms", J.Float (self *. 1000.)) ]))
    r.phase_delta

let inproc ~workload ~ops ~seed ~seconds ~trace ~out ~trace_out =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let sources = distinct_sources ops in
  (* Set-up: parse every input from its text.  Set-up time is the median
     of several repetitions: two before the reference pass and one before
     each measured round, so they sample the host over the whole run as
     the rounds do.  The instances of the first repetition are used. *)
  let insts = Hashtbl.create 32 in
  let setup_u = ref [] and setup_t = ref [] and resolve_ms = ref [] in
  let set_up ~traced =
    let scale = Calib.step () in
    let t0 = now () in
    List.iter
      (fun (key, src) ->
        let s0 = now () in
        let inst = resolve_exn key src in
        let s1 = now () in
        if traced then
          ignore (Trace.add "input.resolve" ~start:s0 ~dur:(s1 -. s0) ~attrs:[ ("input", J.Str key) ])
        else resolve_ms := ((s1 -. s0) *. 1000. /. scale) :: !resolve_ms;
        if not (Hashtbl.mem insts key) then Hashtbl.replace insts key inst)
      sources;
    let dt = (now () -. t0) /. scale in
    if traced then setup_t := dt :: !setup_t else setup_u := dt :: !setup_u
  in
  ignore (Calib.refresh ());
  set_up ~traced:false;
  set_up ~traced:trace;
  (* Reference pass, untimed: each op's outcome and counter deltas. *)
  let refs = Array.map (fun op -> exec ~traced:false insts op) ops in
  let ref_text = Array.mapi (fun i r -> rendered (Hashtbl.find insts (source_key ops.(i))) r.outcome) refs in
  let valid = Array.make n true in
  Array.iteri
    (fun i r ->
      let o = r.outcome in
      if o.Eco.Engine.status <> Eco.Engine.Solved || o.Eco.Engine.verified <> Some true then begin
        valid.(i) <- false;
        fail "%s: reference solve not solved and verified" ops.(i).Roster.label
      end;
      if get r.delta "cert.failed" <> 0 then begin
        valid.(i) <- false;
        fail "%s: certification failed" ops.(i).Roster.label
      end)
    refs;
  (* Measured phase: whole rounds over the roster in seeded order until
     --seconds have passed.  In a traced run every other round is traced,
     so the tracing overhead is measured against interleaved untraced
     rounds on the same host state. *)
  let samples = ref [] in
  let wall = [| 0.; 0. |] and count = [| 0; 0 |] in
  let per_op_runs = Array.make n [] in
  let hwm_before_trace = ref 0. in
  let t_start = now () in
  let round = ref 0 in
  let finished () =
    let el = now () -. t_start in
    el >= phase_cap
    || el >= seconds && count.(0) >= min_samples && ((not trace) || count.(1) >= min_samples)
  in
  while not (finished ()) do
    let traced = trace && !round mod 2 = 1 in
    if traced && !hwm_before_trace = 0. then hwm_before_trace := vm_hwm_mb "self";
    set_up ~traced;
    let order = shuffle (Random.State.make [| seed; !round |]) (Array.init n Fun.id) in
    Array.iter
      (fun i ->
        let op = ops.(i) in
        let r = exec ~traced insts op in
        let o = r.outcome in
        let same = r.delta = refs.(i).delta in
        let text_same = String.equal (rendered (Hashtbl.find insts (source_key op)) o) ref_text.(i) in
        if not same then fail "%s: counters did not repeat (round %d)" op.Roster.label !round;
        if not text_same then fail "%s: outcome did not repeat (round %d)" op.Roster.label !round;
        let ok = valid.(i) && same && text_same in
        let k = if traced then 1 else 0 in
        let dt = (r.t2 -. r.t0) /. r.scale in
        wall.(k) <- wall.(k) +. dt;
        count.(k) <- count.(k) + 1;
        if traced then begin
          trace_request ~workload ~repeat:!round ~req:(List.length !samples + 1) op r;
          per_op_runs.(i) <- r :: per_op_runs.(i)
        end;
        samples :=
          {
            op = i;
            ms = dt *. 1000.;
            ok;
            traced;
            cached = -1;
            cost = o.Eco.Engine.cost;
            gates = o.Eco.Engine.gates;
            depth = o.Eco.Engine.depth;
          }
          :: !samples)
      order;
    incr round
  done;
  let hwm = vm_hwm_mb "self" in
  (* Independent re-check of every distinct outcome, outside the loop. *)
  Array.iteri
    (fun i r ->
      let op = ops.(i) in
      let config = R.config_of_options op.Roster.options in
      match certified_ok (Hashtbl.find insts (source_key op)) r.outcome ~budget:config.Eco.Engine.verify_budget with
      | Ok () -> ()
      | Error msg ->
        valid.(i) <- false;
        fail "%s: %s" op.Roster.label msg)
    refs;
  let samples = List.map (fun s -> if valid.(s.op) then s else { s with ok = false }) !samples in
  let layers =
    if not trace then []
    else begin
      (* Per op, the median over its traced repeats; summed over the
         roster: the time one pass spends in each layer. *)
      (* Times are divided by the host's slowdown, as the samples are. *)
      let per_op f =
        sum (Array.to_list (Array.map (fun runs -> median (List.map (fun r -> f r /. r.scale) runs)) per_op_runs))
      in
      let phase p r = Option.value (List.assoc_opt p r.phase_delta) ~default:0. in
      let eco_s = per_op (phase "eco") in
      let children = List.map (fun c -> (c, per_op (phase ("eco/" ^ c)))) eco_children in
      let counts =
        count_layers (fun k -> float_of_int (Array.fold_left (fun acc r -> acc + get r.delta k) 0 refs))
      in
      let props = List.assoc "sat.propagations" counts in
      let traced_runs = List.concat (Array.to_list per_op_runs) in
      let mean f = sum (List.map f traced_runs) /. float_of_int (max 1 (List.length traced_runs)) in
      let cert_overhead =
        if workload <> "signoff-certify" then 0.
        else
          (* The same ops uncertified, once each, against the median of
             their certified repeats. *)
          sum
            (Array.to_list
               (Array.mapi
                  (fun i op ->
                    let plain =
                      exec ~traced:false insts
                        { op with Roster.options = { op.Roster.options with R.certify = false } }
                    in
                    median (List.map (fun r -> (r.t2 -. r.t0) /. r.scale) per_op_runs.(i))
                    -. ((plain.t2 -. plain.t0) /. plain.scale))
                  ops))
      in
      [ ("eco.window.s", per_op (fun r -> r.t1 -. r.t0)) ]
      @ List.map (fun (c, s) -> ("eco." ^ c ^ ".s", s)) children
      @ [
          ("eco.unattributed.s", eco_s -. sum (List.map snd children));
          ("sat.props_per_eco_s", if eco_s > 0. then props /. eco_s else 0.);
        ]
      @ counts
      @ [
          ("cert.overhead.s", cert_overhead);
          ("gc.minor_mwords", mean (fun r -> r.minor_words /. 1e6));
          ("gc.major_collections", mean (fun r -> float_of_int r.major_collections));
          ("input.resolve.ms", median !resolve_ms);
          ("host.slowdown", median (List.map (fun r -> r.scale) traced_runs));
        ]
    end
  in
  if trace then
    Trace.write trace_out
      ~meta:[ ("workload", J.Str workload); ("seed", J.Int seed); ("origin_unix", J.Float Trace.origin) ];
  write_result out
    [
      ("labels", J.List (Array.to_list (Array.map (fun op -> J.Str op.Roster.label) ops)));
      ("samples", samples_json samples);
      ("wall_s", floats [ wall.(0); wall.(1) ]);
      ("setup_s", J.List [ floats !setup_u; floats !setup_t ]);
      ( "peak_rss_mb",
        floats (if trace then [ !hwm_before_trace; hwm ] else [ hwm; hwm ]) );
      ("layers", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) layers));
    ]

(* {2 serve-edit: the daemon in its own process} *)

let payload op = J.to_string (R.to_json (R.Solve (Roster.spec op)))

(* One episode's request stream over the pool.  Ops come in triples per
   instance: [3k] is the first request of an unseen instance (a full
   solve), [3k+1]/[3k+2] the same instance under another method or
   weight set (outcome misses that hit the cone cache).  Every op is then
   repeated [repeats] times (outcome-cache hits).

   The shape is fixed and only the order of the plain hits comes from the
   seed, so every seed sends the same work:
   - first requests sit at fixed positions over the first three quarters;
   - a repeat comes at least two positions after its op's first request:
     with at most two connections and one FIFO worker, the first request
     is then solved and cached before the repeat is looked up, so which
     requests hit is fixed by the stream, not by timing;
   - every [guard_period]-th hit is re-solved, certified, by the server's
     guard; those slots get fixed ops, one instance after another, so the
     guard's cost does not vary with the seed. *)
let build_stream ~seed ~repeats ~guard_period n =
  let total = n * (1 + repeats) in
  let first_pos = Array.make n max_int in
  let slots = Array.make total (-1) in
  let placed = ref 0 in
  for p = 0 to total - 1 do
    let any_eligible = Array.exists (fun q -> q <= p - 2) first_pos in
    if !placed < n && (p >= !placed * total * 3 / (4 * n) || not any_eligible) then begin
      first_pos.(!placed) <- p;
      slots.(p) <- !placed;
      incr placed
    end
  done;
  let left = Array.make n repeats in
  let eligible p x = first_pos.(x) <= p - 2 && left.(x) > 0 in
  let take x p =
    left.(x) <- left.(x) - 1;
    slots.(p) <- x
  in
  let rotation = List.init n (fun i -> (i mod (n / 3) * 3) + (i / (n / 3))) in
  let next_guard = ref 0 in
  let hits = ref 0 in
  Array.iteri
    (fun p x ->
      if x < 0 then begin
        incr hits;
        if !hits mod guard_period = 0 then begin
          let rec pick k =
            if k < n then begin
              let x = List.nth rotation ((!next_guard + k) mod n) in
              if eligible p x then begin
                next_guard := (!next_guard + k + 1) mod n;
                take x p
              end
              else pick (k + 1)
            end
          in
          pick 0
        end
      end)
    slots;
  let rng = Random.State.make [| seed; 0x5e4e |] in
  Array.iteri
    (fun p x ->
      if x < 0 then begin
        let cands = List.filter (eligible p) (List.init n Fun.id) in
        let cands = if cands = [] then List.filter (fun x -> left.(x) > 0) (List.init n Fun.id) else cands in
        take (List.nth cands (Random.State.int rng (List.length cands))) p
      end)
    slots;
  slots

let connect_retry addr ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    try Server.Client.connect addr
    with Unix.Unix_error _ when now () < deadline ->
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

let counters_of_stats resp =
  match Option.bind (J.member "result" resp) (J.member "counters") with
  | Some (J.Obj kvs) -> List.filter_map (fun (k, v) -> Option.map (fun i -> (k, i)) (J.to_int v)) kvs
  | _ -> failwith "stats reply without counters"

type reply = { r_op : int; r_ms : float; r_ok : bool; r_cached : bool; r_result : string }

type episode = {
  setup : float;
  wall : float;
  replies : reply list;
  server_delta : Telemetry.snapshot;
  rss_mb : float;
  traced_ep : bool;
  scale : float;  (** the host's slowdown around the episode (Calib) *)
}

(* Starts `eco_cli serve -j 1` and runs [f] with its pid, a connection,
   the counters of its first stats reply and the set-up time (spawn to
   that reply).  The server is then shut down over the wire and must exit
   with status 0; if [f] raises, it is killed.  Either way it has been
   reaped when this returns. *)
let with_server ~eco_cli ~sock ~log f =
  let t0 = now () in
  let pid =
    Unix.create_process eco_cli [| eco_cli; "serve"; "--socket"; sock; "-j"; "1" |] Unix.stdin log log
  in
  let reaped = ref false in
  let kill () =
    if not !reaped then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      reaped := true
    end
  in
  Fun.protect ~finally:kill @@ fun () ->
  let c = connect_retry (Server.Protocol.Unix_socket sock) ~timeout:30. in
  let before = counters_of_stats (Server.Client.request c R.Stats) in
  let result = f ~pid ~conn:c ~before ~t0 ~setup:(now () -. t0) in
  ignore (Server.Client.request c R.Shutdown);
  Server.Client.close c;
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> fail "server exited with status %d" c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail "server stopped by signal %d" s);
  reaped := true;
  result

let run_episode ~eco_cli ~sock ~log ~ops ~payloads ~stream ~traced ~nconn ~req_base =
  with_server ~eco_cli ~sock ~log @@ fun ~pid ~conn:c0 ~before ~t0 ~setup ->
  let addr = Server.Protocol.Unix_socket sock in
  if traced then ignore (Trace.add "serve.setup" ~start:t0 ~dur:setup);
  let conns = Array.init nconn (fun k -> if k = 0 then c0 else connect_retry addr ~timeout:5.) in
  let next = ref 0 and m = Mutex.create () in
  let replies = Array.make nconn [] in
  let repeat =
    let seen = Array.make (Array.length ops) 0 in
    Array.map
      (fun i ->
        seen.(i) <- seen.(i) + 1;
        seen.(i) - 1)
      stream
  in
  let worker k =
    let rec loop () =
      let p =
        Mutex.protect m (fun () ->
            let p = !next in
            incr next;
            p)
      in
      if p < Array.length stream then begin
        let i = stream.(p) in
        let req = req_base + p + 1 in
        let root_start = now () in
        let outside =
          if not traced then []
          else begin
            (* The layers of the hit path, timed from outside on the same
               payload: parse, resolve and fingerprint. *)
            let time name f =
              let s = now () in
              let v = f () in
              (name, s, now () -. s, v)
            in
            let n1, s1, d1, env = time "server.parse" (fun () -> R.parse payloads.(i)) in
            let spec =
              match env with
              | Ok { R.request = R.Solve spec; _ } -> spec
              | _ -> failwith "payload does not parse as a solve request"
            in
            let n2, s2, d2, inst = time "input.resolve" (fun () -> resolve_exn "payload" spec.R.source) in
            let n3, s3, d3, _ =
              time "server.fingerprint" (fun () -> Server.Fingerprint.instance inst spec.R.options)
            in
            [ (n1, s1, d1); (n2, s2, d2); (n3, s3, d3) ]
          end
        in
        let ts = now () in
        let raw = Server.Client.request_raw conns.(k) payloads.(i) in
        let te = now () in
        let resp = J.of_string raw in
        let cached = J.member "cached" resp = Some (J.Bool true) in
        if traced then begin
          let op = ops.(i) in
          let root =
            Trace.add ~req "request" ~start:root_start ~dur:(te -. root_start)
              ~attrs:
                [
                  ("workload", J.Str "serve-edit");
                  ("instance", J.Str (source_key op));
                  ("method", J.Str (R.method_name op.Roster.options.R.method_));
                  ("repeat", J.Int repeat.(p));
                  ("cached", J.Bool cached);
                ]
          in
          List.iter (fun (n, s, d) -> ignore (Trace.add ~parent:root ~req n ~start:s ~dur:d)) outside;
          ignore (Trace.add ~parent:root ~req "wire.roundtrip" ~start:ts ~dur:(te -. ts))
        end;
        let result = Option.fold ~none:"" ~some:J.to_string (J.member "result" resp) in
        replies.(k) <-
          { r_op = i; r_ms = (te -. ts) *. 1000.; r_ok = Server.Client.is_ok resp; r_cached = cached; r_result = result }
          :: replies.(k);
        loop ()
      end
    in
    try loop ()
    with e -> Mutex.protect m (fun () -> fail "connection %d: %s" k (Printexc.to_string e))
  in
  let w0 = now () in
  let threads = Array.init nconn (fun k -> Thread.create worker k) in
  Array.iter Thread.join threads;
  let wall = now () -. w0 in
  let after = counters_of_stats (Server.Client.request c0 R.Stats) in
  let rss_mb = vm_hwm_mb (string_of_int pid) in
  Array.iteri (fun k c -> if k > 0 then Server.Client.close c) conns;
  {
    setup;
    wall;
    replies = List.concat (Array.to_list replies);
    server_delta = Telemetry.diff before after;
    rss_mb;
    traced_ep = traced;
    scale = 1.;
  }

let serve ~ops ~seed ~seconds ~trace ~out ~trace_out ~eco_cli ~workdir =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let payloads = Array.map payload ops in
  let stream = build_stream ~seed ~repeats:7 ~guard_period:16 n in
  let nconn = max 1 (min 2 (Domain.recommended_domain_count ())) in
  let sock = Filename.concat workdir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let log =
    Unix.openfile (Filename.concat workdir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let episodes = ref [] in
  let count = [| 0; 0 |] in
  let t_start = now () in
  let finished () =
    let el = now () -. t_start in
    el >= phase_cap
    || el >= seconds && count.(0) >= min_samples && ((not trace) || count.(1) >= min_samples)
  in
  let setups = ref [] in
  while not (finished ()) do
    let traced = trace && List.length !episodes mod 2 = 1 in
    (* The host's slowdown is measured just before and just after the
       episode, while no server runs; set-up times are divided by the
       first, the episode's times by the mean of both. *)
    let before = Calib.refresh () in
    (* Extra start/stop cycles spread over the run, for set-up time. *)
    for _ = 1 to 2 do
      setups :=
        with_server ~eco_cli ~sock ~log (fun ~pid:_ ~conn:_ ~before:_ ~t0:_ ~setup -> setup /. before)
        :: !setups
    done;
    let req_base = List.length !episodes * Array.length stream in
    let e = run_episode ~eco_cli ~sock ~log ~ops ~payloads ~stream ~traced ~nconn ~req_base in
    let scale = (before +. Calib.refresh ()) /. 2. in
    let e = { e with setup = e.setup /. before; scale } in
    episodes := e :: !episodes;
    let k = if traced then 1 else 0 in
    count.(k) <- count.(k) + List.length e.replies
  done;
  Unix.close log;
  let episodes = List.rev !episodes in
  (* References: the same inputs solved in this process, outside any
     timing, and re-checked with certification. *)
  let refs =
    Array.map
      (fun op ->
        let inst = resolve_exn op.Roster.label (Roster.source op) in
        let config = R.config_of_options op.Roster.options in
        let o = Eco.Engine.solve ~config inst in
        let valid =
          o.Eco.Engine.status = Eco.Engine.Solved
          && o.Eco.Engine.verified = Some true
          &&
          match certified_ok inst o ~budget:config.Eco.Engine.verify_budget with
          | Ok () -> true
          | Error msg ->
            fail "%s: %s" op.Roster.label msg;
            false
        in
        if not valid then fail "%s: reference not solved, verified and certified" op.Roster.label;
        (valid, rendered inst o, o))
      ops
  in
  let samples =
    List.concat_map
      (fun e ->
        List.map
          (fun r ->
            let valid, text, (o : Eco.Engine.outcome) = refs.(r.r_op) in
            let same = r.r_ok && String.equal r.r_result text in
            if not same then fail "%s: served result differs from the in-process reference" ops.(r.r_op).Roster.label;
            {
              op = r.r_op;
              ms = r.r_ms /. e.scale;
              ok = valid && same;
              traced = e.traced_ep;
              cached = (if r.r_cached then 1 else 0);
              cost = o.Eco.Engine.cost;
              gates = o.Eco.Engine.gates;
              depth = o.Eco.Engine.depth;
            })
          e.replies)
      episodes
  in
  List.iter
    (fun e ->
      if get e.server_delta "cache.guard_failed" <> 0 then fail "cache guard failed on a served hit";
      if get e.server_delta "cert.failed" <> 0 then fail "server-side certification failed")
    episodes;
  let by_mode traced f = List.filter_map (fun e -> if e.traced_ep = traced then Some (f e) else None) episodes in
  let layers =
    if not trace then []
    else begin
      (* Server-side work per episode (one pass of the stream), median
         over episodes; the outside-timed hit-path calls from the trace. *)
      let med_count k = median (List.map (fun e -> float_of_int (get e.server_delta k)) episodes) in
      let share prefix =
        let h = med_count (prefix ^ ".hits") and m = med_count (prefix ^ ".misses") in
        if h +. m > 0. then h /. (h +. m) else 0.
      in
      let counts = count_layers med_count in
      let scale = median (by_mode true (fun e -> e.scale)) in
      let span_ms name =
        median
          (List.filter_map
             (fun (s : Trace.span) -> if s.Trace.name = name then Some (s.Trace.dur *. 1000. /. scale) else None)
             !Trace.spans)
      in
      counts
      @ [
          ("input.resolve.ms", span_ms "input.resolve");
          ("server.parse.ms", span_ms "server.parse");
          ("server.fingerprint.ms", span_ms "server.fingerprint");
          ("cache.hit_share", share "cache");
          ("cache.cone.hit_share", share "cache.cone");
          ("cache.guard_failed", med_count "cache.guard_failed");
          ("host.slowdown", scale);
        ]
    end
  in
  if trace then
    Trace.write trace_out
      ~meta:[ ("workload", J.Str "serve-edit"); ("seed", J.Int seed); ("origin_unix", J.Float Trace.origin) ];
  let hwm traced = median (by_mode traced (fun e -> e.rss_mb)) in
  let wall traced = sum (by_mode traced (fun e -> e.wall /. e.scale)) in
  write_result out
    [
      ("labels", J.List (Array.to_list (Array.map (fun op -> J.Str op.Roster.label) ops)));
      ("samples", samples_json (List.rev samples));
      ("wall_s", floats [ wall false; wall true ]);
      ( "setup_s",
        J.List [ floats (!setups @ by_mode false (fun e -> e.setup)); floats (by_mode true (fun e -> e.setup)) ] );
      ("peak_rss_mb", floats [ hwm false; (if trace then hwm true else hwm false) ]);
      ("layers", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) layers));
    ]

(* {2 Roster screen} *)

let screen ~ops =
  let ops = Array.of_list ops in
  let insts = Hashtbl.create 32 in
  List.iter (fun (k, src) -> Hashtbl.replace insts k (resolve_exn k src)) (distinct_sources ops);
  Array.iter
    (fun op ->
      let runs = List.init 3 (fun _ -> exec ~traced:false insts op) in
      let r = List.hd runs in
      let o = r.outcome in
      let inst = Hashtbl.find insts (source_key op) in
      let config = R.config_of_options op.Roster.options in
      let repeat = List.for_all (fun x -> x.delta = r.delta && rendered inst x.outcome = rendered inst o) runs in
      let cert =
        match certified_ok inst o ~budget:config.Eco.Engine.verify_budget with Ok () -> "ok" | Error m -> m
      in
      Printf.printf "%-24s status=%s verified=%s cost=%d gates=%d depth=%d structural=%b repeat=%b cert=%s ms=%s\n%!"
        op.Roster.label
        (match o.Eco.Engine.status with Eco.Engine.Solved -> "solved" | Infeasible -> "infeasible" | Failed m -> "failed:" ^ m)
        (match o.Eco.Engine.verified with Some true -> "yes" | Some false -> "no" | None -> "-")
        o.Eco.Engine.cost o.Eco.Engine.gates o.Eco.Engine.depth o.Eco.Engine.used_structural repeat cert
        (String.concat "," (List.map (fun x -> Printf.sprintf "%.1f" ((x.t2 -. x.t0) *. 1000.)) runs)))
    ops

(* {2 Command line} *)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref "" and trace_out = ref "" and eco_cli = ref "" and workdir = ref "." in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--out", Arg.Set_string out, "FILE raw samples");
      ("--trace-out", Arg.Set_string trace_out, "FILE spans of the traced run");
      ("--eco-cli", Arg.Set_string eco_cli, "PATH eco_cli executable");
      ("--workdir", Arg.Set_string workdir, "DIR sockets and logs");
    ]
  in
  let usage = "harness (inproc|serve|screen) --workload W [options]" in
  Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  let ops =
    match Roster.ops_of_workload !workload with
    | Some ops -> ops
    | None ->
      prerr_endline ("harness: unknown workload " ^ !workload);
      exit 2
  in
  let trace = !trace = 1 in
  match mode with
  | "inproc" ->
    inproc ~workload:!workload ~ops ~seed:!seed ~seconds:!seconds ~trace ~out:!out ~trace_out:!trace_out
  | "serve" ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    serve ~ops ~seed:!seed ~seconds:!seconds ~trace ~out:!out ~trace_out:!trace_out ~eco_cli:!eco_cli
      ~workdir:!workdir
  | "screen" -> screen ~ops
  | _ ->
    prerr_endline usage;
    exit 2
