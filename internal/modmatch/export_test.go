package modmatch

// WithoutPrefilter returns opt with the simulation refuter turned off, for
// the external differential tests' oracle runs.
func WithoutPrefilter(opt Options) Options {
	opt.disablePrefilter = true
	return opt
}
