package ngram

// PaperTemps exposes paperTemps to the external test package, which can
// import eval to pin it.
var PaperTemps = paperTemps
