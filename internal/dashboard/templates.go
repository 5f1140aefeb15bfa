package dashboard

// BuiltinTemplates returns the panel templates shipped with the agent. The
// originals are JSON exports of hand-built Grafana panels stored in the
// template location; here they are Go string constants with the same
// substitution model. Selection is by measurement name with a "*"
// fallback, so a site's own application-level measurements (Sect. IV) get
// a generic panel.
func BuiltinTemplates() []PanelTemplate {
	return []PanelTemplate{
		{
			Measurement: "cpu",
			JSON: `{
  "title": "CPU {{.Field}} [%]",
  "type": "graph",
  "span": 6,
  "unit": "percent",
  "targets": [{
    "query": "SELECT mean({{.Field}}) FROM cpu WHERE jobid = '{{.JobID}}' AND time >= {{.StartNS}} AND time <= {{.EndNS}} GROUP BY time(60s), hostname",
    "legend": "$tag_hostname"
  }]
}`,
		},
		{
			Measurement: "likwid_mem_dp",
			JSON: `{
  "title": "LIKWID {{.Field}}",
  "type": "graph",
  "span": 6,
  "targets": [{
    "query": "SELECT mean({{.Field}}) FROM likwid_mem_dp WHERE jobid = '{{.JobID}}' AND time >= {{.StartNS}} AND time <= {{.EndNS}} GROUP BY time(60s), hostname",
    "legend": "$tag_hostname"
  }]
}`,
		},
		{
			Measurement: "likwid_flops_dp",
			JSON: `{
  "title": "LIKWID {{.Field}}",
  "type": "graph",
  "span": 6,
  "targets": [{
    "query": "SELECT mean({{.Field}}) FROM likwid_flops_dp WHERE jobid = '{{.JobID}}' AND time >= {{.StartNS}} AND time <= {{.EndNS}} GROUP BY time(60s), hostname",
    "legend": "$tag_hostname"
  }]
}`,
		},
		{
			Measurement: "memory",
			JSON: `{
  "title": "Memory {{.Field}}",
  "type": "graph",
  "span": 6,
  "targets": [{
    "query": "SELECT mean({{.Field}}) FROM memory WHERE jobid = '{{.JobID}}' AND time >= {{.StartNS}} AND time <= {{.EndNS}} GROUP BY time(60s), hostname",
    "legend": "$tag_hostname"
  }]
}`,
		},
		{
			// Generic fallback: any other measurement (application-level
			// series from libusermetric land here automatically).
			Measurement: "*",
			JSON: `{
  "title": "{{.Measurement}} {{.Field}}",
  "type": "graph",
  "span": 6,
  "targets": [{
    "query": "SELECT mean({{.Field}}) FROM \"{{.Measurement}}\" WHERE jobid = '{{.JobID}}' AND time >= {{.StartNS}} AND time <= {{.EndNS}} GROUP BY time(60s), hostname",
    "legend": "$tag_hostname"
  }]
}`,
		},
	}
}
