(* In-memory spans for the traced run, written out once at exit.  A span
   has a name, a start (seconds since the trace origin), a duration and
   the span that caused it; spans of one request share its [req] id.
   Phase-delta spans come from the engine's cumulative phase timers, so
   they carry a duration and a self time but no placement of their own:
   their start is the enclosing call's start. *)

module J = Server.Jsonx

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;  (** request id shared by a request's spans; 0 outside requests *)
  name : string;
  start : float;
  dur : float;
  attrs : (string * J.t) list;
}

let origin = Unix.gettimeofday ()
let spans : span list ref = ref []
let next_id = ref 0
let lock = Mutex.create ()

(* Load-generator threads record spans concurrently. *)
let add ?(parent = 0) ?(req = 0) ?(attrs = []) name ~start ~dur =
  Mutex.protect lock (fun () ->
      incr next_id;
      spans := { id = !next_id; parent; req; name; start = start -. origin; dur; attrs } :: !spans;
      !next_id)

let span_json s =
  J.Obj
    ([
       ("id", J.Int s.id);
       ("parent", J.Int s.parent);
       ("req", J.Int s.req);
       ("name", J.Str s.name);
       ("start_ms", J.Float (s.start *. 1000.));
       ("dur_ms", J.Float (s.dur *. 1000.));
     ]
    @ s.attrs)

let write path ~meta =
  let oc = open_out path in
  output_string oc
    (J.to_string (J.Obj (meta @ [ ("spans", J.List (List.rev_map span_json !spans)) ])));
  output_char oc '\n';
  close_out oc
