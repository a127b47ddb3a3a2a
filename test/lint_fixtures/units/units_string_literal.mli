val budget : float (* rodunits: cpu-sec *)
val report : unit -> string
